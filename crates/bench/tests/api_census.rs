//! The public-surface census: one line of `API.txt` per `pub` item of every
//! library crate, tagged with the widest place that names it.
//!
//! The scanner reads the sources as text (rustdoc's JSON output needs a
//! nightly toolchain), so it matches by name: an item counts as named
//! wherever its last path segment appears as an identifier. That errs one
//! way only. A namesake elsewhere keeps a dead item at `workspace`, but an
//! item tagged `crate` is named nowhere outside its crate. The rules are
//! spelled out in [`HEADER`], which heads the file.
//!
//! The test fails on any difference from the checked-in file and prints the
//! rows that moved, so growth of the surface shows up in review. To re-bless
//! after an intentional change of the surface (the bless refuses a `crate`
//! row the file does not list already):
//!
//! ```text
//! cargo test -p bench --test api_census -- --ignored bless
//! ```

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};

const HEADER: &str = "\
# Public-surface census: one row per `pub` item of every library crate, as
# `reach kind path`. Re-bless: cargo test -p bench --test api_census -- --ignored bless
#
# reach, the widest place that names the item:
#   benchmark  named under benchmark/ (frozen: the benchmark must keep compiling)
#   workspace  named by another crate's non-test code, a binary, an example,
#              a bench, a doctest or an exported macro's body (doctests run,
#              and exported macros expand, outside the crate)
#   tests      named only by test code outside the crate
#   crate      named nowhere outside the crate
#
# Scope: the library sources of crates/* and crates/compat/*, less src/bin/,
# everything from a file's first line that starts with #[cfg(test)] on, each
# item an indented #[cfg(test)] annotates, and modules declared in either
# (compiled only under cfg(test)). Rows: pub fn, struct, enum, trait, type,
# const, static, mod and #[macro_export] macros; methods as Type::method. A
# `pub use` re-export is neither a row nor a reference; #[proc_macro_derive]
# entry points are exempt. Rows carry no line numbers.
#
# Matching is by name, so it is conservative: a namesake elsewhere keeps a
# dead item at `workspace`. Identifiers in string literals count (generated
# code names items there); comments do not, except doctest code blocks.
";

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn census_path() -> PathBuf {
    repo_root().join("API.txt")
}

/// A token of Rust source. Comments yield none; a string literal is one
/// token holding its text.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Tok<'a> {
    Ident(&'a str),
    Punct(u8),
    Lit(&'a str),
}

/// A lexed file: its tokens, and the identifiers of its doctest code blocks.
struct Lexed<'a> {
    tokens: Vec<Tok<'a>>,
    doctest: Vec<&'a str>,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifiers in `text`, for string literals and doctest lines.
fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// Splits `src` into tokens. Comments are dropped, but the lines of a
/// doc-comment code fence that compiles as a doctest yield their
/// identifiers.
fn lex(src: &str) -> Lexed<'_> {
    let b = src.as_bytes();
    let mut lexed = Lexed { tokens: Vec::new(), doctest: Vec::new() };
    // Inside a doc-comment code fence: whether it compiles as a doctest.
    let mut fence: Option<bool> = None;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if b[i..].starts_with(b"//") {
            let end = b[i..].iter().position(|&x| x == b'\n').map_or(b.len(), |n| i + n);
            let line = &src[i..end];
            let doc = line.strip_prefix("///").filter(|d| !d.starts_with('/'));
            if let Some(doc) = doc.or_else(|| line.strip_prefix("//!")).map(str::trim) {
                if let Some(info) = doc.strip_prefix("```") {
                    let compiles = matches!(info, "" | "rust" | "no_run" | "should_panic");
                    fence = if fence.is_some() { None } else { Some(compiles) };
                } else if fence == Some(true) {
                    lexed.doctest.extend(idents(doc));
                }
            }
            i = end;
        } else if b[i..].starts_with(b"/*") {
            let mut depth = 0;
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == b'"' {
            let mut j = i + 1;
            while j < b.len() && b[j] != b'"' {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            lexed.tokens.push(Tok::Lit(&src[i + 1..j.min(b.len())]));
            i = j + 1;
        } else if c == b'\'' {
            // A char literal, or the quote of a lifetime.
            let ch_len = src[i + 1..].chars().next().map_or(1, char::len_utf8);
            if b.get(i + 1) == Some(&b'\\') {
                let close = b[i + 3..].iter().position(|&x| x == b'\'').unwrap_or(0);
                i += 4 + close;
            } else if b.get(i + 1 + ch_len) == Some(&b'\'') {
                i += 2 + ch_len;
            } else {
                i += 1;
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            let word = &src[start..i];
            let hashes = b[i..].iter().take_while(|&&x| x == b'#').count();
            if (word == "r" || word == "br") && b.get(i + hashes) == Some(&b'"') {
                // A raw string: r"..", r#".."#, br"..".
                let open = i + hashes + 1;
                let mut close = b"\"".to_vec();
                close.extend(std::iter::repeat(b'#').take(hashes));
                let len = b[open..].windows(close.len()).position(|w| w == close);
                let end = open + len.unwrap_or(b.len() - open);
                lexed.tokens.push(Tok::Lit(&src[open..end]));
                i = end + close.len();
            } else if word == "b" && b.get(i) == Some(&b'"') {
                // A byte string: lexed as a string on the next pass.
            } else if word == "r" && hashes == 1 {
                i += 1; // a raw identifier: r#type
            } else {
                lexed.tokens.push(Tok::Ident(word));
            }
        } else if c.is_ascii_digit() {
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
        } else {
            if !c.is_ascii_whitespace() {
                lexed.tokens.push(Tok::Punct(c));
            }
            i += 1;
        }
    }
    lexed
}

/// The index of the token that closes the group opened at `open`.
fn close_of(tokens: &[Tok], open: usize) -> usize {
    let (o, c) = match tokens[open] {
        Tok::Punct(b'(') => (b'(', b')'),
        Tok::Punct(b'[') => (b'[', b']'),
        Tok::Punct(b'{') => (b'{', b'}'),
        _ => return open,
    };
    let mut depth = 0;
    for (k, tok) in tokens.iter().enumerate().skip(open) {
        if *tok == Tok::Punct(o) {
            depth += 1;
        } else if *tok == Tok::Punct(c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len()
}

/// The name of the type an `impl` header starting after `impl` at `i`
/// implements for: the last identifier outside angle brackets, after `for`
/// if there is one, before `{` or `where`.
fn impl_type<'a>(tokens: &[Tok<'a>], mut i: usize) -> &'a str {
    let mut depth = 0i32;
    let mut name = "";
    let mut prev = Tok::Punct(b' ');
    while let Some(&tok) = tokens.get(i) {
        match tok {
            Tok::Punct(b'<') => depth += 1,
            Tok::Punct(b'>') if prev != Tok::Punct(b'-') => depth -= 1,
            Tok::Punct(b'{') | Tok::Ident("where") if depth == 0 => break,
            Tok::Ident("for") if depth == 0 => name = "",
            Tok::Ident(word) if depth == 0 => name = word,
            _ => {}
        }
        prev = tok;
        i += 1;
    }
    name
}

/// What a `{` opens: a module or impl body, whose items can be rows, or
/// anything else (a function, struct or trait body, an initialiser).
enum Frame {
    Module(String),
    Impl(String),
    Other,
}

const ROW_KINDS: [&str; 9] =
    ["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union"];

/// One census row before its reach is known: `(path, kind)`. The item's
/// name is the path's last segment.
type Item = (String, &'static str);

/// What one module file declares.
#[derive(Default)]
struct Scan {
    items: Vec<Item>,
    /// The modules declared with `mod name;`.
    children: Vec<String>,
    /// The token ranges of `#[macro_export]` macro bodies, which expand in
    /// the caller's crate.
    exported_bodies: Vec<std::ops::Range<usize>>,
}

/// The `pub` items of one module file whose path is `module`.
fn scan_items(tokens: &[Tok], krate: &str, module: &str) -> Scan {
    let mut scan = Scan::default();
    let mut frames = vec![Frame::Module(module.to_string())];
    let mut pending: Option<Frame> = None;
    let (mut start, mut exported, mut exempt) = (true, false, false);
    let mut i = 0;
    while i < tokens.len() {
        let scope = match frames.last() {
            Some(Frame::Module(path) | Frame::Impl(path)) => Some(path.clone()),
            _ => None,
        };
        match tokens[i] {
            Tok::Punct(b'#') if start => {
                let open = i + 1 + usize::from(tokens.get(i + 1) == Some(&Tok::Punct(b'!')));
                let end = close_of(tokens, open);
                let attr = &tokens[open.min(end)..end];
                exported |= attr.contains(&Tok::Ident("macro_export"));
                exempt |= attr.contains(&Tok::Ident("proc_macro_derive"));
                i = end + 1;
                continue;
            }
            Tok::Punct(b'{') => {
                frames.push(pending.take().unwrap_or(Frame::Other));
                start = true;
            }
            Tok::Punct(b'}') => {
                frames.pop();
                start = true;
            }
            Tok::Punct(b';') => {
                pending = None;
                start = true;
            }
            Tok::Ident(_) if start && scope.is_some() => {
                let scope = scope.unwrap_or_default();
                let mut j = i;
                let mut public = false;
                if tokens[j] == Tok::Ident("pub") {
                    j += 1;
                    if tokens.get(j) == Some(&Tok::Punct(b'(')) {
                        j = close_of(tokens, j) + 1;
                    } else {
                        public = true;
                    }
                }
                loop {
                    match (tokens.get(j), tokens.get(j + 1)) {
                        (Some(Tok::Ident("default" | "unsafe" | "async")), _) => j += 1,
                        (Some(Tok::Ident("extern")), Some(Tok::Lit(_))) => j += 2,
                        (
                            Some(Tok::Ident("const")),
                            Some(Tok::Ident("fn" | "unsafe" | "async")),
                        ) => j += 1,
                        _ => break,
                    }
                }
                let keyword = match tokens.get(j) {
                    Some(Tok::Ident(word)) => *word,
                    _ => "",
                };
                let mut name_at = j + 1;
                if keyword == "static" && tokens.get(name_at) == Some(&Tok::Ident("mut")) {
                    name_at += 1;
                }
                let name = match tokens.get(name_at) {
                    Some(Tok::Ident(name)) => *name,
                    _ => "",
                };
                match keyword {
                    "impl" => {
                        pending =
                            Some(Frame::Impl(format!("{scope}::{}", impl_type(tokens, j + 1))))
                    }
                    "macro_rules" => {
                        pending = Some(Frame::Other);
                        let name = match tokens.get(j + 2) {
                            Some(Tok::Ident(name)) => *name,
                            _ => "",
                        };
                        if exported {
                            scan.items.push((format!("{krate}::{name}"), "macro"));
                            scan.exported_bodies.push(j + 3..close_of(tokens, j + 3));
                        }
                    }
                    "mod" if tokens.get(name_at + 1) == Some(&Tok::Punct(b';')) => {
                        scan.children.push(name.to_string());
                    }
                    "mod" => pending = Some(Frame::Module(format!("{scope}::{name}"))),
                    _ => {}
                }
                if let Some(kind) = ROW_KINDS.iter().find(|k| **k == keyword) {
                    if public && !exempt && !name.is_empty() {
                        scan.items.push((format!("{scope}::{name}"), kind));
                    }
                }
                exported = false;
                exempt = false;
                start = false;
                i = j.max(i + 1);
                continue;
            }
            _ => start = false,
        }
        i += 1;
    }
    scan
}

/// Who names an identifier, by the role of the code it appears in.
#[derive(Default)]
struct Callers {
    benchmark: HashSet<String>,
    /// Binaries, examples, benches and doctests, of any crate.
    outside: HashSet<String>,
    /// Integration tests, of any crate.
    tests: HashSet<String>,
    /// Library code (see [`split_tests`]), by crate.
    lib: HashMap<String, HashSet<String>>,
    /// Unit tests, by crate.
    unit: HashMap<String, HashSet<String>>,
}

/// Adds every identifier `tokens` names to `set`, skipping `pub use`
/// re-exports.
fn add_names(set: &mut HashSet<String>, tokens: &[Tok]) {
    let mut i = 0;
    while i < tokens.len() {
        match tokens[i] {
            Tok::Ident("pub") if tokens.get(i + 1) == Some(&Tok::Ident("use")) => {
                while i < tokens.len() && tokens[i] != Tok::Punct(b';') {
                    i += 1;
                }
            }
            Tok::Ident(word) => {
                set.insert(word.to_string());
            }
            Tok::Lit(text) => set.extend(idents(text).map(str::to_string)),
            Tok::Punct(_) => {}
        }
        i += 1;
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively, sorted; `target` is skipped.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return files };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() && !path.ends_with("target") {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// The library crates: `(name, directory)` of each `crates/*` and
/// `crates/compat/*` with a `src/lib.rs`.
fn library_crates() -> Vec<(String, PathBuf)> {
    let mut crates = Vec::new();
    for parent in ["crates", "crates/compat"] {
        for dir in std::fs::read_dir(repo_root().join(parent)).expect("crates dir") {
            let dir = dir.expect("dir entry").path();
            if dir.join("src/lib.rs").is_file() {
                let name = dir.file_name().expect("name").to_string_lossy().into_owned();
                crates.push((name, dir));
            }
        }
    }
    crates.sort();
    crates
}

/// Lexes a file into its library code and its test code. The test code is
/// everything from the first line that starts with `#[cfg(test)]` on, plus
/// each item an indented `#[cfg(test)]` annotates (a test hook in a trait or
/// an impl), which hides that item only.
fn split_tests(text: &str) -> (Lexed<'_>, Lexed<'_>) {
    let lines = text.split_inclusive('\n');
    let cut = lines.take_while(|line| !line.starts_with("#[cfg(test)]")).map(str::len).sum();
    let (mut lib, mut test) = (lex(&text[..cut]), lex(&text[cut..]));
    let (ident, punct) = (Tok::Ident, Tok::Punct);
    let cfg_test = [
        punct(b'#'),
        punct(b'['),
        ident("cfg"),
        punct(b'('),
        ident("test"),
        punct(b')'),
        punct(b']'),
    ];
    let mut i = 0;
    while i + 7 <= lib.tokens.len() {
        if lib.tokens[i..i + 7] != cfg_test {
            i += 1;
            continue;
        }
        // The item ends at its body's closing brace, or at its `;`.
        let mut end = i + 7;
        while end < lib.tokens.len() && !matches!(lib.tokens[end], Tok::Punct(b'{' | b';')) {
            end = close_of(&lib.tokens, end) + 1;
        }
        let end = close_of(&lib.tokens, end.min(lib.tokens.len() - 1));
        test.tokens.extend(lib.tokens.drain(i..=end));
    }
    (lib, test)
}

/// Walks the module tree of `krate` from `file`: rows from its library code,
/// names from all of it (see [`split_tests`]). A module declared in the test
/// code is test code throughout.
fn walk(
    krate: &str,
    file: &Path,
    module: &str,
    test_only: bool,
    rows: &mut Vec<Item>,
    callers: &mut Callers,
) {
    let text = read(file);
    let (lib, test) = if test_only { (lex(""), lex(&text)) } else { split_tests(&text) };
    let lib_names = callers.lib.entry(krate.to_string()).or_default();
    add_names(lib_names, &lib.tokens);
    callers.outside.extend(lib.doctest.iter().map(|w| w.to_string()));
    add_names(callers.unit.entry(krate.to_string()).or_default(), &test.tokens);

    let scan = scan_items(&lib.tokens, krate, module);
    for body in scan.exported_bodies {
        add_names(&mut callers.outside, &lib.tokens[body]);
    }
    rows.extend(scan.items);
    // A module's children live beside `lib.rs` / `mod.rs`, else in the
    // directory named after the file.
    let stem = file.file_stem().expect("stem").to_string_lossy();
    let dir = if stem == "lib" || stem == "mod" {
        file.parent().expect("parent").to_path_buf()
    } else {
        file.with_extension("")
    };
    let test_children = scan_items(&test.tokens, krate, module).children;
    let children =
        scan.children.iter().map(|c| (c, test_only)).chain(test_children.iter().map(|c| (c, true)));
    for (child, test_only) in children {
        let flat = dir.join(format!("{child}.rs"));
        let path = if flat.is_file() { flat } else { dir.join(child).join("mod.rs") };
        walk(krate, &path, &format!("{module}::{child}"), test_only, rows, callers);
    }
}

/// The census text: the header, then one `reach kind path` row per item,
/// sorted by path.
fn census() -> String {
    let root = repo_root();
    let add_dir = |set: &mut HashSet<String>, dir: PathBuf| {
        for file in rust_files(&dir) {
            add_names(set, &lex(&read(&file)).tokens);
        }
    };
    let mut callers = Callers::default();
    let mut rows_by_crate = Vec::new();
    for (krate, dir) in library_crates() {
        let mut rows = Vec::new();
        walk(&krate, &dir.join("src/lib.rs"), &krate, false, &mut rows, &mut callers);
        add_dir(&mut callers.outside, dir.join("src/bin"));
        add_dir(&mut callers.outside, dir.join("benches"));
        add_dir(&mut callers.tests, dir.join("tests"));
        rows_by_crate.push((krate, rows));
    }
    add_dir(&mut callers.outside, root.join("examples"));
    add_dir(&mut callers.tests, root.join("tests"));
    add_dir(&mut callers.benchmark, root.join("benchmark"));

    let named_by_other = |by_crate: &HashMap<String, HashSet<String>>, krate: &str, name: &str| {
        by_crate.iter().any(|(other, names)| other != krate && names.contains(name))
    };
    let mut lines = BTreeSet::new();
    for (krate, rows) in &rows_by_crate {
        for (path, kind) in rows {
            let name = path.rsplit("::").next().unwrap_or_default();
            let reach = if callers.benchmark.contains(name) {
                "benchmark"
            } else if callers.outside.contains(name) || named_by_other(&callers.lib, krate, name) {
                "workspace"
            } else if callers.tests.contains(name) || named_by_other(&callers.unit, krate, name) {
                "tests"
            } else {
                "crate"
            };
            lines.insert((path.clone(), format!("{reach:<9} {kind:<6} {path}\n")));
        }
    }
    let mut out = String::from(HEADER);
    out.extend(lines.into_iter().map(|(_, line)| line));
    out
}

/// Re-writes `API.txt` from the current tree. Run explicitly (`-- --ignored
/// bless`) after an intentional change of the public surface. It refuses a
/// `crate` row the file does not list already: an item named nowhere
/// outside its crate is made `pub(crate)` or deleted, not blessed.
#[test]
#[ignore = "re-blesses API.txt; run only after an intentional change of the public surface"]
fn bless_api_census() {
    let fresh = census();
    let golden = std::fs::read_to_string(census_path()).unwrap_or_default();
    let listed: HashSet<&str> = golden.lines().collect();
    let new_crate_rows: Vec<&str> =
        fresh.lines().filter(|row| row.starts_with("crate ") && !listed.contains(row)).collect();
    assert!(
        new_crate_rows.is_empty(),
        "these items are named nowhere outside their crate; make each pub(crate) or delete \
         it:\n{new_crate_rows:#?}"
    );
    std::fs::write(census_path(), fresh).expect("write API.txt");
}

/// Every `pub` item and its reach are as `API.txt` records; a failure lists
/// the rows that moved.
#[test]
fn the_public_surface_matches_the_census() {
    let golden = std::fs::read_to_string(census_path())
        .expect("API.txt missing; run the bless test to create it");
    let fresh = census();
    if golden == fresh {
        return;
    }
    let was: BTreeSet<&str> = golden.lines().collect();
    let now: BTreeSet<&str> = fresh.lines().collect();
    let added: Vec<&str> = now.difference(&was).copied().collect();
    let gone: Vec<&str> = was.difference(&now).copied().collect();
    panic!(
        "the public surface moved against API.txt (re-bless with \
         `cargo test -p bench --test api_census -- --ignored bless`):\n  now: {added:#?}\n  was: {gone:#?}"
    );
}

/// The lexer keeps strings, chars and lifetimes apart from comments, and the
/// item scanner sees through impls, attributes and restricted visibility.
#[test]
fn the_scanner_reads_items_and_names() {
    let src = r##"
        //! ```
        //! doc_caller();
        //! ```
        /// ```text
        /// not_a_caller();
        /// ```
        pub use other::Reexported;
        #[derive(Debug)]
        pub struct Plain<'a>(pub &'a str);
        pub(crate) fn restricted() {}
        impl<'a, T: Fn() -> u8> Plain<'a> where T: Copy {
            pub const fn method(&self) -> char { let _ = "// pub fn fake() {}"; '"' }
            fn private() {}
        }
        impl Trait for Plain<'_> { fn required() {} }
        pub mod inline { pub static mut GLOBAL: u8 = 0; }
        #[macro_export]
        macro_rules! exported { () => { pub fn expanded() {} } }
        #[proc_macro_derive(X)]
        pub fn entry() {}
        mod child;
        #[cfg(test)]
        mod tests { pub fn unit() {} }
    "##;
    let lexed = lex(src);
    assert_eq!(lexed.doctest, ["doc_caller"]);
    let scan = scan_items(&lexed.tokens, "k", "k::m");
    let rows: Vec<String> =
        scan.items.iter().map(|(path, kind)| format!("{kind} {path}")).collect();
    assert_eq!(
        rows,
        [
            "struct k::m::Plain",
            "fn k::m::Plain::method",
            "mod k::m::inline",
            "static k::m::inline::GLOBAL",
            "macro k::exported",
            "fn k::m::tests::unit",
        ]
    );
    assert_eq!(scan.children, ["child"]);
    let body: Vec<Tok> =
        scan.exported_bodies.iter().flat_map(|r| lexed.tokens[r.clone()].to_vec()).collect();
    assert!(body.contains(&Tok::Ident("expanded")));
    let mut names = HashSet::new();
    add_names(&mut names, &lexed.tokens);
    assert!(names.contains("fake") && names.contains("Plain"));
    assert!(!names.contains("Reexported") && !names.contains("not_a_caller"));

    // An indented `#[cfg(test)]` hides only the item it annotates; one at
    // the start of a line starts the test code.
    let src = "impl Plain {
    #[cfg(test)]
    fn hook(&mut self) -> &mut dyn Any { self }
    #[cfg(test)]
    fn declared(&self);
    pub fn after_hooks() {}
}
#[cfg(test)]
mod tests { pub fn unit() {} }
";
    let (lib, test) = split_tests(src);
    let scan = scan_items(&lib.tokens, "k", "k");
    let rows: Vec<String> =
        scan.items.iter().map(|(path, kind)| format!("{kind} {path}")).collect();
    assert_eq!(rows, ["fn k::Plain::after_hooks"]);
    let (mut lib_names, mut test_names) = (HashSet::new(), HashSet::new());
    add_names(&mut lib_names, &lib.tokens);
    add_names(&mut test_names, &test.tokens);
    assert!(!lib_names.contains("hook") && !lib_names.contains("declared"));
    assert!(["hook", "declared", "Any", "unit"].iter().all(|name| test_names.contains(*name)));
}
