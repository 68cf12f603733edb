//! Gradient selection strategies: exact Top-K — one sampled-threshold
//! selection, serial or chunked across workers, bit-identical to a full
//! selection either way — and Random-K.

use crate::compressed::{check_index_space, CompressError, CompressedGradient};
use parcore::ParExecutor;
use serde::{Deserialize, Serialize};
use tensorlib::{FlatTensor, KernelPath};

/// How the kept coordinates are selected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SelectionMethod {
    /// Exact Top-K by magnitude. This is what the paper's GPU-side compressor
    /// does (Section IV-C).
    TopK,
    /// Uniformly random selection with a deterministic seed (baseline from the
    /// sparsification literature; much worse for accuracy at the same ratio).
    /// A compressor draws the same coordinates for every gradient of a given
    /// length, so the functional trainer draws afresh: step `s` (1-based) of
    /// lane `l` selects with the seed
    /// `splitmix64(splitmix64(seed ^ s) ^ l)`, where `splitmix64` is the
    /// SplitMix64 finalizer. A retried or restored step draws what the
    /// straight run drew.
    RandomK {
        /// Seed for the deterministic pseudo-random selection.
        seed: u64,
    },
}

/// Whether `keep_ratio` is a valid Top-K keep fraction: in `(0, 1]` (NaN is
/// rejected). This is the single source of truth for the validity rule —
/// [`Compressor::new`] panics on it, and front-ends that prefer an error over
/// a panic (e.g. `smart_infinity::Session`) check it before constructing a
/// compressor.
pub fn valid_keep_ratio(keep_ratio: f64) -> bool {
    keep_ratio > 0.0 && keep_ratio <= 1.0
}

/// Every `(index, value)` of a shard that the filter pass let through, in
/// ascending index order: what the exact selection chooses from.
#[derive(Debug, Clone, Default)]
pub(crate) struct Candidates {
    pub(crate) indices: Vec<u32>,
    pub(crate) values: Vec<f32>,
}

impl Candidates {
    pub(crate) fn push(&mut self, index: u32, value: f32) {
        self.indices.push(index);
        self.values.push(value);
    }

    fn len(&self) -> usize {
        self.indices.len()
    }

    fn clear(&mut self) {
        self.indices.clear();
        self.values.clear();
    }
}

/// The reusable state of one compression lane: the selection's sample buffer,
/// candidate lists and ranking keys, and the compressed stream they produce.
/// A caller that compresses a shard every step keeps one of these per shard
/// and hands it to [`crate::ErrorFeedback::compress_into`], so a warm step
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CompressLane {
    // The sampled magnitudes, as ranking keys.
    sample: Vec<u32>,
    candidates: Candidates,
    // One list per chunk, filled by the workers of a chunked selection.
    chunk_candidates: Vec<Candidates>,
    keys: Vec<u32>,
    stream: CompressedGradient,
}

impl CompressLane {
    /// The stream written by the last compression into this lane.
    pub fn stream(&self) -> &CompressedGradient {
        &self.stream
    }
}

/// What a selection reads: a shard as it is, or an error-feedback residual
/// that the shard's gradient is added into by the selection's first pass.
pub(crate) enum Source<'a> {
    Plain(&'a [f32]),
    Accumulate { residual: &'a mut [f32], grads: &'a [f32] },
}

impl<'a> Source<'a> {
    fn len(&self) -> usize {
        match self {
            Source::Plain(values) => values.len(),
            Source::Accumulate { grads, .. } => grads.len(),
        }
    }

    /// The ranking key of element `i` (of the sum, for an accumulating
    /// source), computed without writing anything.
    fn key(&self, i: usize) -> u32 {
        match self {
            Source::Plain(values) => magnitude_key(values[i]),
            Source::Accumulate { residual, grads } => magnitude_key(residual[i] + grads[i]),
        }
    }

    /// The values the selection chooses from, after adding the gradient in
    /// (one pass) for an accumulating source.
    fn into_values(self) -> &'a [f32] {
        match self {
            Source::Plain(values) => values,
            Source::Accumulate { residual, grads } => {
                for (r, g) in residual.iter_mut().zip(grads) {
                    *r += g;
                }
                residual
            }
        }
    }
}

/// A gradient compressor: a selection method plus the fraction of elements kept.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Compressor {
    keep_ratio: f64,
    method: SelectionMethod,
}

impl Compressor {
    /// Exact Top-K keeping `keep_ratio` of the elements (e.g. `0.01` keeps the
    /// top 1% by magnitude, which the paper reports as "2% compression"
    /// because every kept element carries an index and a value).
    ///
    /// # Panics
    ///
    /// Panics if `keep_ratio` is not in `(0, 1]`.
    pub fn top_k(keep_ratio: f64) -> Self {
        Self::new(keep_ratio, SelectionMethod::TopK)
    }

    /// Random-K selection with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `keep_ratio` is not in `(0, 1]`.
    pub fn random_k(keep_ratio: f64, seed: u64) -> Self {
        Self::new(keep_ratio, SelectionMethod::RandomK { seed })
    }

    /// Creates a compressor with an explicit method.
    ///
    /// # Panics
    ///
    /// Panics if `keep_ratio` is not in `(0, 1]`.
    pub fn new(keep_ratio: f64, method: SelectionMethod) -> Self {
        assert!(valid_keep_ratio(keep_ratio), "keep ratio must be in (0, 1], got {keep_ratio}");
        Self { keep_ratio, method }
    }

    /// Fraction of elements kept.
    pub fn keep_ratio(&self) -> f64 {
        self.keep_ratio
    }

    /// The selection method.
    pub fn method(&self) -> SelectionMethod {
        self.method
    }

    /// Fraction of the dense volume actually transferred (index + value per
    /// kept element → twice the keep ratio, capped at 1).
    pub fn transfer_ratio(&self) -> f64 {
        (2.0 * self.keep_ratio).min(1.0)
    }

    /// Number of elements kept for a gradient of length `n` (at least 1 for a
    /// non-empty gradient).
    pub fn num_kept(&self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            ((n as f64 * self.keep_ratio).round() as usize).clamp(1, n)
        }
    }

    /// Compresses a dense gradient.
    ///
    /// # Panics
    ///
    /// Panics if the gradient is longer than `u32::MAX` elements (the index
    /// stream is u32 on the wire); [`Compressor::try_compress`] surfaces the
    /// same condition as an error.
    pub fn compress(&self, grads: &FlatTensor) -> CompressedGradient {
        self.compress_par_chunked(grads, &ParExecutor::serial(), 1)
    }

    /// Fallible [`Compressor::compress`]: oversized gradients error instead
    /// of aborting.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::IndexSpaceExceeded`] if the gradient is
    /// longer than `u32::MAX` elements.
    pub fn try_compress(&self, grads: &FlatTensor) -> Result<CompressedGradient, CompressError> {
        self.try_compress_par_chunked(grads, &ParExecutor::serial(), 1)
    }

    /// Compresses a dense gradient, scanning for Top-K candidates in parallel
    /// on `pool` (one chunk per worker; gradients too small to amortise the
    /// thread spawns run inline, see [`ParExecutor::workers_for`]).
    /// Bit-identical to [`Compressor::compress`]; the random selection runs
    /// serially regardless of the executor.
    ///
    /// # Panics
    ///
    /// Panics if the gradient is longer than `u32::MAX` elements; see
    /// [`Compressor::try_compress`].
    pub fn compress_par(&self, grads: &FlatTensor, pool: &ParExecutor) -> CompressedGradient {
        self.compress_par_chunked(grads, pool, pool.workers_for(grads.len()))
    }

    /// Compresses with an explicit Top-K chunk count (independent of the
    /// executor's worker count). Bit-identical to [`Compressor::compress`]
    /// for every `(pool, num_chunks)` combination.
    ///
    /// # Panics
    ///
    /// Panics if `num_chunks` is zero or the gradient is longer than
    /// `u32::MAX` elements.
    pub fn compress_par_chunked(
        &self,
        grads: &FlatTensor,
        pool: &ParExecutor,
        num_chunks: usize,
    ) -> CompressedGradient {
        self.try_compress_par_chunked(grads, pool, num_chunks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Compressor::compress_par_chunked`].
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::IndexSpaceExceeded`] if the gradient is
    /// longer than `u32::MAX` elements.
    ///
    /// # Panics
    ///
    /// Panics if `num_chunks` is zero.
    pub(crate) fn try_compress_par_chunked(
        &self,
        grads: &FlatTensor,
        pool: &ParExecutor,
        num_chunks: usize,
    ) -> Result<CompressedGradient, CompressError> {
        let mut lane = CompressLane::default();
        self.try_compress_into(grads.as_slice(), pool, num_chunks, &mut lane)?;
        Ok(lane.stream)
    }

    /// Compresses `grads` into `lane`'s stream, reusing the lane's buffers:
    /// what every other entry point calls with a fresh lane. The length guard
    /// runs *before* any index is narrowed to u32, so the selection can never
    /// silently truncate an offset on a >4-billion-element shard.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::IndexSpaceExceeded`] if the gradient is
    /// longer than `u32::MAX` elements; the lane is untouched then.
    ///
    /// # Panics
    ///
    /// Panics if `num_chunks` is zero.
    pub(crate) fn try_compress_into(
        &self,
        grads: &[f32],
        pool: &ParExecutor,
        num_chunks: usize,
        lane: &mut CompressLane,
    ) -> Result<(), CompressError> {
        check_index_space(grads.len())?;
        self.select_into(Source::Plain(grads), KernelPath::active(), pool, num_chunks, lane);
        Ok(())
    }

    /// The one selection behind every entry point: fills `lane`'s stream from
    /// `source` on kernel tier `path`, with the Top-K filter split into
    /// `num_chunks` chunks on `pool`. An accumulating source has its gradient
    /// added in exactly once, whatever the method. The caller has checked the
    /// length against the index space.
    ///
    /// # Panics
    ///
    /// Panics if `num_chunks` is zero.
    pub(crate) fn select_into(
        &self,
        source: Source<'_>,
        path: KernelPath,
        pool: &ParExecutor,
        num_chunks: usize,
        lane: &mut CompressLane,
    ) {
        assert!(num_chunks > 0, "chunk count must be positive");
        let n = source.len();
        debug_assert!(n <= u32::MAX as usize);
        let k = self.num_kept(n);
        match self.method {
            SelectionMethod::TopK => top_k(source, k, path, pool, num_chunks, lane),
            SelectionMethod::RandomK { seed } => {
                let values = source.into_values();
                let indices = &mut lane.candidates.indices;
                indices.clear();
                if n > 0 {
                    random_k(n, k, seed, indices);
                }
                lane.stream.refill(indices, values);
            }
        }
    }
}

/// Magnitudes sampled (at a fixed stride) to estimate the selection's cut.
/// Taking and ranking 16 Ki of them costs about a fifth of one filter pass
/// over a 1 Mi-element shard, and at the paper's 1 % keep it puts ~160
/// members of the top-k set in the sample — enough for the margin of
/// [`conservative_rank`] to admit only about a third more candidates than
/// the `k` that are kept.
const SAMPLE_LEN: usize = 1 << 14;

/// Shards shorter than this are selected without a sample: it would read a
/// quarter or more of the shard to save a selection that is already small.
pub(crate) const SAMPLE_FLOOR: usize = 4 * SAMPLE_LEN;

/// The stride an `n`-element shard is sampled at: odd, so that it does not
/// lock onto power-of-two row lengths.
pub(crate) fn sample_stride(n: usize) -> usize {
    (n / SAMPLE_LEN) | 1
}

/// The sample rank at which the cut is taken. Of `sample_len` strided samples
/// of an `n`-element shard, `e = k · sample_len / n` are expected to belong
/// to the top-`k` set, with a standard deviation of at most `√e`. A cut at
/// rank `r` is too high — fewer than `k` elements reach it — only if more
/// than `r` of the samples are top-`k` members, so `r = e + 4·√e + 8` makes a
/// miss a more-than-4σ event (the constant keeps the margin when `e` is
/// small), while about `k · r / e` candidates pass.
fn conservative_rank(k: usize, n: usize, sample_len: usize) -> usize {
    let expected = k as f64 * sample_len as f64 / n as f64;
    (expected + 4.0 * expected.sqrt() + 8.0).ceil() as usize
}

/// The cut at sample rank `rank` (descending magnitude): the magnitude whose
/// key is there. Past the end of the sample (or with none taken) nothing is
/// cut.
fn cut_at(sample: &mut [u32], rank: usize) -> f32 {
    if rank < sample.len() {
        let at = sample.len() - 1 - rank;
        f32::from_bits(*sample.select_nth_unstable(at).1)
    } else {
        0.0
    }
}

/// Exact Top-K selection by magnitude into `lane.stream` (ascending index):
/// estimate a conservative cut from a strided sample, collect every
/// `(index, value)` not below it with the SIMD filter, and run the exact
/// selection over those candidates only. An accumulating source is sampled
/// as the sums it will hold, and its first filter pass is the accumulation.
///
/// The result never depends on the estimate. If at least `k` elements pass
/// the cut, every member of the top-`k` set passes too (its magnitude is at
/// least the `k`-th largest, which is at least the cut; NaN never compares
/// below anything and ranks first), so selecting among the candidates is
/// selecting among all. If fewer pass, the cut is lowered and the
/// (accumulated) values filtered again; the last cut, `0.0`, admits every
/// element, which is the full selection. A bad estimate costs a pass, never
/// a wrong set.
fn top_k(
    source: Source<'_>,
    k: usize,
    path: KernelPath,
    pool: &ParExecutor,
    num_chunks: usize,
    lane: &mut CompressLane,
) {
    let n = source.len();
    lane.sample.clear();
    if n >= SAMPLE_FLOOR && k < n / 4 {
        lane.sample.extend((0..n).step_by(sample_stride(n)).map(|i| source.key(i)));
    }
    let mut rank = conservative_rank(k, n, lane.sample.len());
    let cut = cut_at(&mut lane.sample, rank);
    let values = collect_candidates(source, cut, path, pool, num_chunks, lane);
    while lane.candidates.len() < k {
        rank = rank.saturating_mul(4);
        let cut = cut_at(&mut lane.sample, rank);
        collect_candidates(Source::Plain(values), cut, path, pool, num_chunks, lane);
    }
    let CompressLane { candidates, keys, stream, .. } = lane;
    select_top(candidates, k, keys, stream, n);
}

/// The ranking key of a value: its magnitude bits (sign cleared) as a `u32`.
/// For non-negative floats the bit patterns order exactly as `total_cmp`
/// orders the values, so keys order as `|v|.total_cmp` does — NaN above
/// infinity (by payload), `-0.0` equal to `0.0`.
fn magnitude_key(value: f32) -> u32 {
    value.to_bits() & 0x7FFF_FFFF
}

/// Keeps the `k` largest candidates by magnitude, ties to the lowest index,
/// in `stream` as a stream of an `original_len`-element gradient: the `k`-th
/// largest key is found among plain integers, and one in-order pass keeps
/// every candidate above it plus the first candidates equal to it — so the
/// stream comes out in index order with its values, and nothing is sorted or
/// gathered.
fn select_top(
    candidates: &Candidates,
    k: usize,
    keys: &mut Vec<u32>,
    stream: &mut CompressedGradient,
    original_len: usize,
) {
    let (indices, values) = stream.reset(original_len);
    if candidates.len() == k {
        indices.extend_from_slice(&candidates.indices);
        values.extend_from_slice(&candidates.values);
        return;
    }
    keys.clear();
    keys.extend(candidates.values.iter().map(|&v| magnitude_key(v)));
    let at = keys.len() - k;
    let (_, &mut kth, above) = keys.select_nth_unstable(at);
    let mut ties = k - above.iter().filter(|&&key| key > kth).count();
    for (&index, &value) in candidates.indices.iter().zip(&candidates.values) {
        let key = magnitude_key(value);
        if key > kth || (key == kth && ties > 0) {
            ties -= usize::from(key == kth);
            indices.push(index);
            values.push(value);
            if indices.len() == k {
                break;
            }
        }
    }
}

/// Fills `lane.candidates` with every `(index, value)` (ascending index)
/// whose magnitude is not below `cut`, accumulating an accumulating source on
/// the way, and returns the values as they now stand. With more than one
/// chunk the workers of `pool` each filter a contiguous range into their own
/// list and the lists are concatenated in range order — the same list a
/// single scan produces.
fn collect_candidates<'a>(
    source: Source<'a>,
    cut: f32,
    path: KernelPath,
    pool: &ParExecutor,
    num_chunks: usize,
    lane: &mut CompressLane,
) -> &'a [f32] {
    let CompressLane { candidates, chunk_candidates, .. } = lane;
    candidates.clear();
    if num_chunks == 1 {
        return match source {
            Source::Plain(values) => {
                crate::simd::filter_not_less(path, values, cut, candidates);
                values
            }
            Source::Accumulate { residual, grads } => {
                crate::simd::add_filter_not_less(path, residual, grads, cut, candidates);
                residual
            }
        };
    }
    let ranges = parcore::chunk_bounds(source.len(), num_chunks);
    if chunk_candidates.len() < ranges.len() {
        chunk_candidates.resize_with(ranges.len(), Candidates::default);
    }
    let lists = chunk_candidates.iter_mut();
    let values: &[f32] = match source {
        Source::Plain(values) => {
            let chunks: Vec<_> = ranges.iter().map(|r| &values[r.clone()]).zip(lists).collect();
            pool.for_each(chunks, |_, (chunk, list)| {
                list.clear();
                crate::simd::filter_not_less(path, chunk, cut, list);
            });
            values
        }
        Source::Accumulate { residual, grads } => {
            let mut rest = &mut *residual;
            let mut chunks = Vec::with_capacity(ranges.len());
            for (range, list) in ranges.iter().zip(lists) {
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                chunks.push((chunk, &grads[range.clone()], list));
            }
            pool.for_each(chunks, |_, (chunk, grads, list)| {
                list.clear();
                crate::simd::add_filter_not_less(path, chunk, grads, cut, list);
            });
            residual
        }
    };
    for (range, list) in ranges.iter().zip(chunk_candidates.iter()) {
        candidates.indices.extend(list.indices.iter().map(|&i| range.start as u32 + i));
        candidates.values.extend_from_slice(&list.values);
    }
    values
}

/// Deterministic pseudo-random selection of k distinct indices (ascending).
fn random_k(n: usize, k: usize, seed: u64, selected: &mut Vec<u32>) {
    // SplitMix64-based index shuffle: pick k distinct pseudo-random positions.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k {
        picked.insert((next() % n as u64) as u32);
    }
    selected.extend(picked);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The total order the selection keeps to: descending magnitude, ties
    /// broken by ascending index. `total_cmp` keeps the order total even for
    /// NaN magnitudes (they sort above infinity, i.e. are selected first).
    /// Under a total order the top-k *set* is unique, which is what makes
    /// every way of finding it — any cut, any chunk count — bit-identical.
    fn magnitude_order(grads: &[f32], a: u32, b: u32) -> std::cmp::Ordering {
        let ma = grads[a as usize].abs();
        let mb = grads[b as usize].abs();
        mb.total_cmp(&ma).then(a.cmp(&b))
    }

    /// The selection this module replaced, kept as the oracle: one
    /// `select_nth` over every index under the same total order.
    fn oracle_top_k(grads: &[f32], k: usize) -> Vec<u32> {
        let mut indices: Vec<u32> = (0..grads.len() as u32).collect();
        indices.select_nth_unstable_by(k.saturating_sub(1), |&a, &b| magnitude_order(grads, a, b));
        indices.truncate(k);
        indices.sort_unstable();
        indices
    }

    /// Compresses serially and holds the stream against the oracle: the same
    /// indices, and the gradient's own bits as values.
    fn compress_checked(grads: &FlatTensor, ratio: f64) -> CompressedGradient {
        let compressor = Compressor::top_k(ratio);
        let c = compressor.compress(grads);
        let expected = oracle_top_k(grads.as_slice(), compressor.num_kept(grads.len()));
        assert_eq!(c.indices(), expected.as_slice(), "n={} ratio={ratio}", grads.len());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let picked: Vec<f32> = expected.iter().map(|&i| grads.as_slice()[i as usize]).collect();
        assert_eq!(bits(c.values()), bits(&picked), "n={} ratio={ratio}", grads.len());
        assert_eq!(c.original_len(), grads.len());
        c
    }

    #[test]
    fn top_k_keeps_the_largest_magnitudes() {
        let grads = FlatTensor::from_vec(vec![0.1, -5.0, 0.2, 3.0, -0.05, 4.0]);
        let c = Compressor::top_k(0.5).compress(&grads);
        assert_eq!(c.indices(), &[1, 3, 5]);
        assert_eq!(c.values(), &[-5.0, 3.0, 4.0]);
    }

    #[test]
    fn keep_ratio_of_one_keeps_everything() {
        let grads = FlatTensor::from_vec(vec![1.0, 2.0, 3.0]);
        let c = Compressor::top_k(1.0).compress(&grads);
        assert_eq!(c.num_selected(), 3);
        assert_eq!(c.decompress(), grads);
        assert_eq!(Compressor::top_k(1.0).transfer_ratio(), 1.0);
    }

    #[test]
    fn at_least_one_element_is_always_kept() {
        let grads = FlatTensor::from_vec(vec![1.0, 2.0, 3.0]);
        let c = Compressor::top_k(0.0001).compress(&grads);
        assert_eq!(c.num_selected(), 1);
        assert_eq!(c.indices(), &[2]);
    }

    #[test]
    fn default_paper_ratio_transfers_two_percent() {
        let c = Compressor::top_k(0.01);
        assert!((c.transfer_ratio() - 0.02).abs() < 1e-12);
        assert_eq!(c.num_kept(10_000), 100);
        assert_eq!(c.keep_ratio(), 0.01);
        assert_eq!(c.method(), SelectionMethod::TopK);
    }

    #[test]
    fn empty_gradient_compresses_to_empty() {
        let c = Compressor::top_k(0.1).compress(&FlatTensor::zeros(0));
        assert_eq!(c, CompressedGradient::default());
        assert_eq!(Compressor::top_k(0.1).num_kept(0), 0);
    }

    #[test]
    fn random_k_is_deterministic_and_distinct() {
        let grads = FlatTensor::randn(1000, 1.0, 7);
        let a = Compressor::random_k(0.1, 99).compress(&grads);
        let b = Compressor::random_k(0.1, 99).compress(&grads);
        let c = Compressor::random_k(0.1, 100).compress(&grads);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.num_selected(), 100);
        let mut sorted = a.indices().to_vec();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "indices must be distinct");
    }

    #[test]
    fn the_cut_admits_a_modest_surplus_of_candidates() {
        // The margin's derivation, observed: at 1 % of a 1 Mi-element normal
        // shard the cut passes at least k and well under 2k candidates.
        let n = 1 << 20;
        let grads = FlatTensor::randn(n, 0.01, 17);
        let k = Compressor::top_k(0.01).num_kept(n);
        let mut sample: Vec<f32> =
            grads.as_slice().iter().step_by(sample_stride(n)).map(|v| v.abs()).collect();
        let mut keys: Vec<u32> = sample.iter().map(|&m| magnitude_key(m)).collect();
        let rank = conservative_rank(k, n, sample.len());
        let cut = *sample.select_nth_unstable_by(rank, |a, b| b.total_cmp(a)).1;
        assert_eq!(cut_at(&mut keys, rank).to_bits(), cut.to_bits(), "keys rank like total_cmp");
        let passing = grads.as_slice().iter().filter(|v| v.abs() >= cut).count();
        assert!(passing >= k && passing < 2 * k, "k={k} passing={passing} rank={rank}");
    }

    #[test]
    fn threshold_top_k_equals_exact_selection() {
        // Above the sampling floor, ragged against every vector width.
        for (n, ratio) in [(SAMPLE_FLOOR + 3, 0.01), (3 * SAMPLE_FLOOR + 1, 0.001)] {
            compress_checked(&FlatTensor::randn(n, 1.0, 3), ratio);
        }
    }

    #[test]
    fn threshold_top_k_is_exact_on_adversarial_magnitude_distributions() {
        let n = SAMPLE_FLOOR + 17;
        let stride = sample_stride(n);
        // A sea of equal magnitudes with the true top parked at the highest
        // indices, between sample points: the sample sees only the sea, the
        // cut ties with it, and every element is a candidate.
        let mut sea = vec![1.0f32; n];
        let mut spikes = Vec::new();
        for (j, i) in (0..n).rev().filter(|i| i % stride != 0).take(8).enumerate() {
            sea[i] = 100.0 + j as f32;
            spikes.push(i as u32);
        }
        let sea = FlatTensor::from_vec(sea);
        for ratio in [0.001, 0.002, 0.01, 0.2] {
            let c = compress_checked(&sea, ratio);
            assert!(spikes.iter().all(|s| c.indices().contains(s)), "ratio={ratio}: spike lost");
        }
        // Large values on every sample point and nowhere else: the sample
        // sees nothing but them, so every cut it offers is too high for a k
        // beyond their number and the selection ends at the full scan.
        let on_stride = FlatTensor::from_fn(n, |i| {
            if i % stride == 0 {
                1000.0 + (i % 7) as f32
            } else {
                ((i * 31) % 101) as f32 * 0.01
            }
        });
        for ratio in [0.001, 0.05, 0.24] {
            compress_checked(&on_stride, ratio);
        }
    }

    #[test]
    fn threshold_top_k_keeps_nan_magnitudes_like_exact_top_k() {
        let n = SAMPLE_FLOOR + 5;
        let stride = sample_stride(n);
        let mut values: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.31).cos()).collect();
        values[7 * stride] = f32::NAN; // one the sample sees
        values[7 * stride + 1] = -f32::NAN; // and one it does not
        values[n - 2] = f32::NEG_INFINITY;
        let grads = FlatTensor::from_vec(values);
        let c = compress_checked(&grads, 0.01);
        for special in [7 * stride, 7 * stride + 1, n - 2] {
            assert!(c.indices().contains(&(special as u32)), "index {special} dropped");
        }
        // Enough NaNs in the sample to make the cut itself NaN: nothing
        // compares below it, everything is a candidate, the set is the same.
        let poisoned = FlatTensor::from_fn(n, |i| if i % 3 == 0 { f32::NAN } else { i as f32 });
        compress_checked(&poisoned, 0.01);
    }

    #[test]
    fn parallel_top_k_is_bit_identical_to_serial() {
        let grads = FlatTensor::randn(100_003, 1.0, 42); // prime length, ragged chunks
        let cpus = ParExecutor::current().num_threads();
        for ratio in [0.001, 0.01, 0.2, 1.0] {
            let compressor = Compressor::top_k(ratio);
            let serial = compress_checked(&grads, ratio);
            for chunks in [1usize, 2, 7, cpus.max(2)] {
                for threads in [1usize, 2, 4] {
                    let pool = ParExecutor::new(threads);
                    let par = compressor.compress_par_chunked(&grads, &pool, chunks);
                    assert_eq!(par, serial, "ratio={ratio} chunks={chunks} threads={threads}");
                }
            }
            let pool = ParExecutor::new(4);
            assert_eq!(
                compressor.compress_par(&grads, &pool),
                serial,
                "compress_par ratio={ratio}"
            );
        }
    }

    #[test]
    fn nan_gradients_select_deterministically_and_identically_in_parallel() {
        // NaNs sort above every finite magnitude under total_cmp, so they are
        // selected first — and crucially the order stays total, so serial and
        // parallel agree even on poisoned gradients (post-overflow steps).
        let mut values: Vec<f32> = (0..997).map(|i| ((i as f32) * 0.17).sin()).collect();
        values[13] = f32::NAN;
        values[500] = -f32::NAN;
        values[900] = f32::INFINITY;
        let grads = FlatTensor::from_vec(values);
        let compressor = Compressor::top_k(0.01); // k = 10
        let serial = compressor.compress(&grads);
        assert!(serial.indices().contains(&13));
        assert!(serial.indices().contains(&500));
        assert!(serial.indices().contains(&900));
        for chunks in [2usize, 7, 16] {
            for threads in [2usize, 4] {
                let par =
                    compressor.compress_par_chunked(&grads, &ParExecutor::new(threads), chunks);
                assert_eq!(par.indices(), serial.indices(), "chunks={chunks} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_top_k_breaks_magnitude_ties_by_index_like_serial() {
        // All-equal magnitudes: the selection must be the lowest k indices in
        // both the serial and every parallel configuration.
        let grads = FlatTensor::full(1000, 3.0);
        let compressor = Compressor::top_k(0.05);
        let serial = compressor.compress(&grads);
        let expected: Vec<u32> = (0..50).collect();
        assert_eq!(serial.indices(), expected.as_slice());
        for chunks in [2usize, 7, 16] {
            let par = compressor.compress_par_chunked(&grads, &ParExecutor::new(4), chunks);
            assert_eq!(par, serial, "chunks={chunks}");
        }
    }

    #[test]
    fn threshold_top_k_handles_k_at_least_n() {
        // keep_ratio 1.0 → k == n: every element is kept, exactly once, on
        // either side of the sampling floor.
        for n in [100, SAMPLE_FLOOR + 1] {
            let grads = FlatTensor::randn(n, 1.0, 5);
            let c = Compressor::top_k(1.0).compress(&grads);
            assert_eq!(c.num_selected(), n);
            assert_eq!(c.decompress(), grads);
        }
        // Tiny tensors where k == n == 1.
        let single = Compressor::top_k(0.9).compress(&FlatTensor::full(1, 2.0));
        assert_eq!(single.num_selected(), 1);
        assert_eq!(single.indices(), &[0]);
    }

    #[test]
    fn threshold_top_k_handles_all_equal_magnitudes() {
        // Every |g| equals the cut, so every element is a candidate; the
        // final selection must keep exactly k, lowest indices first (the
        // tie-break of the total order). All-zero is the same case.
        for value in [-2.5f32, 0.0] {
            let grads = FlatTensor::full(SAMPLE_FLOOR + 9, value);
            let c = compress_checked(&grads, 0.02);
            let expected: Vec<u32> = (0..c.num_selected() as u32).collect();
            assert_eq!(c.indices(), expected.as_slice());
        }
    }

    #[test]
    fn threshold_top_k_handles_sample_size_larger_than_n() {
        // Shards shorter than the sample (and up to the floor) take no
        // sample: the zero cut admits everything and the selection is full.
        let grads = FlatTensor::from_vec(vec![0.1, -5.0, 0.2, 3.0, -0.05, 4.0]);
        assert_eq!(compress_checked(&grads, 0.5).indices(), &[1, 3, 5]);
        // Both sides of the floor, and of the k < n/4 rule, agree with the oracle.
        for n in [SAMPLE_LEN + 1, SAMPLE_FLOOR - 1, SAMPLE_FLOOR] {
            for ratio in [0.01, 0.249, 0.251] {
                compress_checked(&FlatTensor::randn(n, 1.0, n as u64), ratio);
            }
        }
    }

    #[test]
    fn fallible_compression_matches_the_panicking_path() {
        let grads = FlatTensor::randn(5_000, 1.0, 11);
        let pool = ParExecutor::new(2);
        // One lane serves every call: each refill replaces the last stream.
        let mut lane = CompressLane::default();
        for compressor in [Compressor::top_k(0.01), Compressor::random_k(0.1, 3)] {
            let infallible = compressor.compress(&grads);
            assert_eq!(compressor.try_compress(&grads).unwrap(), infallible);
            assert_eq!(compressor.try_compress_par_chunked(&grads, &pool, 3).unwrap(), infallible);
            for chunks in [1usize, 3] {
                compressor.try_compress_into(grads.as_slice(), &pool, chunks, &mut lane).unwrap();
                assert_eq!(lane.stream(), &infallible, "chunks={chunks}");
            }
        }
    }

    #[test]
    fn a_warm_lane_is_refilled_without_growing() {
        let compressor = Compressor::top_k(0.01);
        let mut lane = CompressLane::default();
        let pool = ParExecutor::serial();
        let grads: Vec<FlatTensor> =
            (0..3).map(|s| FlatTensor::randn(4 * SAMPLE_FLOOR, 0.01, 70 + s)).collect();
        compressor.try_compress_into(grads[0].as_slice(), &pool, 1, &mut lane).unwrap();
        let sample_capacity = lane.sample.capacity();
        let k = lane.stream().num_selected();
        for g in &grads[1..] {
            compressor.try_compress_into(g.as_slice(), &pool, 1, &mut lane).unwrap();
            assert_eq!(lane.stream(), &compressor.compress(g));
            assert_eq!(lane.sample.capacity(), sample_capacity);
            // The candidate list stays a small multiple of what is kept.
            let capacity = lane.candidates.indices.capacity();
            assert!(capacity < 4 * k && lane.keys.capacity() < 4 * k, "{capacity}");
        }
    }

    #[test]
    #[should_panic(expected = "chunk count must be positive")]
    fn zero_chunks_panics() {
        let grads = FlatTensor::zeros(4);
        Compressor::top_k(0.5).compress_par_chunked(&grads, &ParExecutor::serial(), 0);
    }

    #[test]
    #[should_panic(expected = "keep ratio")]
    fn zero_ratio_panics() {
        Compressor::top_k(0.0);
    }

    #[test]
    #[should_panic(expected = "keep ratio")]
    fn ratio_above_one_panics() {
        Compressor::top_k(1.5);
    }

    /// Top-K and Random-K streams of a `len`-element gradient, at several
    /// keep ratios, are strictly ascending and pass `try_new` unchanged.
    fn assert_selections_ascend(len: usize, seed: u64, chunks: usize) {
        let grads = FlatTensor::randn(len, 1.0, seed);
        for ratio in [0.001, 0.01, 0.05, 0.3, 1.0] {
            for compressor in [Compressor::top_k(ratio), Compressor::random_k(ratio, seed)] {
                let c = compressor.compress_par_chunked(&grads, &ParExecutor::new(2), chunks);
                assert_eq!(c.num_selected(), compressor.num_kept(len));
                assert!(c.indices().windows(2).all(|p| p[0] < p[1]), "{compressor:?}");
                let (indices, values) = (c.indices().to_vec(), c.values().to_vec());
                assert_eq!(CompressedGradient::try_new(indices, values, len), Ok(c));
            }
        }
    }

    #[test]
    fn sampled_selections_are_strictly_ascending_too() {
        // Above the sampling floor the cut, the lowering loop and the
        // per-chunk candidate lists are all in play.
        assert_selections_ascend(SAMPLE_FLOOR + 37, 5, 1);
        assert_selections_ascend(SAMPLE_FLOOR + 37, 6, 3);
    }

    proptest! {
        /// Top-K selection keeps exactly k elements and every kept magnitude is
        /// at least as large as every dropped magnitude.
        #[test]
        fn top_k_is_a_valid_selection(
            values in proptest::collection::vec(-100.0f32..100.0, 1..300),
            ratio in 0.01f64..1.0,
        ) {
            let grads = FlatTensor::from_vec(values.clone());
            let compressor = Compressor::top_k(ratio);
            let c = compressor.compress(&grads);
            prop_assert_eq!(c.num_selected(), compressor.num_kept(values.len()));
            let kept: std::collections::HashSet<u32> = c.indices().iter().copied().collect();
            let min_kept = c.values().iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
            for (i, v) in values.iter().enumerate() {
                if !kept.contains(&(i as u32)) {
                    prop_assert!(v.abs() <= min_kept + 1e-6);
                }
            }
        }

        /// Both selectors emit strictly ascending indices at every keep ratio:
        /// the stream invariant `CompressedGradient::try_new` checks holds by
        /// construction.
        #[test]
        fn every_selection_is_strictly_ascending(
            len in 1usize..3000,
            seed in 0u64..1000,
            chunks in 1usize..4,
        ) {
            assert_selections_ascend(len, seed, chunks);
        }

        /// Decompressed Top-K error is never larger than dropping everything.
        #[test]
        fn top_k_reduces_error_vs_zero(
            values in proptest::collection::vec(-10.0f32..10.0, 2..200),
        ) {
            let grads = FlatTensor::from_vec(values);
            let c = Compressor::top_k(0.25).compress(&grads);
            let approx = c.decompress();
            let err = approx.mse(&grads);
            let zero_err = FlatTensor::zeros(grads.len()).mse(&grads);
            prop_assert!(err <= zero_err + 1e-12);
        }

        /// The sampled selection keeps exactly k elements and equals the
        /// full selection on tie-heavy shards above the sampling floor: a
        /// random pattern of quantised values, repeated, so that a large
        /// share of the shard ties exactly at the cut whatever the ratio.
        #[test]
        fn threshold_top_k_keeps_exactly_k_and_matches_exact(
            pattern in proptest::collection::vec(-5.0f32..5.0, 1..500),
            ratio in 0.001f64..0.25,
            extra in 0usize..64,
        ) {
            let grads = FlatTensor::from_fn(SAMPLE_FLOOR + extra, |i| {
                (pattern[i % pattern.len()] * 4.0).round() / 4.0
            });
            let c = compress_checked(&grads, ratio);
            prop_assert_eq!(c.num_selected(), Compressor::top_k(ratio).num_kept(grads.len()));
        }

        /// The key selection alone, with every element a candidate, keeps
        /// the oracle's set on tie-heavy input: a few magnitudes of both
        /// signs, ±0, infinities and NaNs of several payloads, repeated.
        #[test]
        fn key_selection_matches_the_oracle_on_tie_heavy_input(
            pattern in proptest::collection::vec(0usize..12, 1..400),
            keep in 0.0f64..1.0,
        ) {
            const PALETTE: [f32; 12] = [
                0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0,
                f32::INFINITY, f32::NEG_INFINITY,
                f32::from_bits(0x7FC0_0001), f32::from_bits(0xFFC0_0002),
            ];
            let values: Vec<f32> = pattern.iter().map(|&p| PALETTE[p]).collect();
            let n = values.len();
            let k = 1 + (keep * (n - 1) as f64) as usize;
            let candidates = Candidates {
                indices: (0..n as u32).collect(),
                values: values.clone(),
            };
            let (mut keys, mut stream) = (Vec::new(), CompressedGradient::default());
            select_top(&candidates, k, &mut keys, &mut stream, n);
            let expected = oracle_top_k(&values, k);
            prop_assert_eq!(stream.indices(), expected.as_slice());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let picked: Vec<f32> = expected.iter().map(|&i| values[i as usize]).collect();
            prop_assert_eq!(bits(stream.values()), bits(&picked));
        }

        /// Parallel Top-K equals serial Top-K for random tensors, ratios,
        /// chunk counts and thread counts (including duplicate magnitudes).
        #[test]
        fn par_top_k_matches_serial_for_random_inputs(
            values in proptest::collection::vec(-5.0f32..5.0, 1..500),
            ratio in 0.01f64..1.0,
            chunks in 1usize..12,
            threads in 1usize..5,
        ) {
            // Quantise so duplicate magnitudes (ties) are common.
            let grads = FlatTensor::from_vec(
                values.iter().map(|v| (v * 4.0).round() / 4.0).collect(),
            );
            let compressor = Compressor::top_k(ratio);
            let serial = compress_checked(&grads, ratio);
            let par = compressor.compress_par_chunked(&grads, &ParExecutor::new(threads), chunks);
            prop_assert_eq!(par, serial);
        }
    }
}
