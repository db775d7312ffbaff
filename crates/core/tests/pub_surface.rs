//! The `pub` surface and the size of every crate, held by a ratchet.
//!
//! Items another crate, an example, a test or `benchmark/` does not name
//! are `pub(crate)`, so rustc's `dead_code` lint sees them. This test
//! counts, per crate, the `pub` item lines and the `pub` field lines under
//! `crates/*/src` (the lines `grep -E` matches with
//! `'^\s*pub (const )?(fn|struct|enum|trait|type|const|static|mod|use) '`
//! and `'^\s*pub [a-z_][a-z0-9_]*: '`), and all `.rs` lines under
//! `crates/*` (sources, tests and examples, as `wc -l` counts them), and
//! fails when a count goes above the recorded one. A change that lowers a
//! count should lower the table in the same commit; one that raises it
//! must raise the table in its own diff, with the reason.

use std::path::Path;

/// `(crate, pub item lines, pub field lines, .rs lines)`.
type Row = (&'static str, usize, usize, usize);

const RECORDED: &[Row] = &[
    ("core", 233, 81, 15578),
    ("enc", 140, 3, 3319),
    ("llvm", 98, 32, 9924),
    ("snippets", 10, 3, 1884),
    ("x64emu", 19, 8, 1691),
];

const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
];

/// Whether `rest` (a line after `pub `) starts with an item keyword and a
/// space.
fn starts_with_item(rest: &str) -> bool {
    ITEM_KEYWORDS
        .iter()
        .any(|k| rest.strip_prefix(k).is_some_and(|r| r.starts_with(' ')))
}

/// Counts the `pub` item and field lines of one source line.
fn classify(line: &str) -> (usize, usize) {
    let Some(rest) = line.trim_start().strip_prefix("pub ") else {
        return (0, 0);
    };
    let item = starts_with_item(rest) || rest.strip_prefix("const ").is_some_and(starts_with_item);
    let ident_len = rest
        .bytes()
        .take_while(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || *b == b'_')
        .count();
    let field = ident_len > 0
        && !rest.as_bytes()[0].is_ascii_digit()
        && rest[ident_len..].starts_with(": ");
    (item as usize, field as usize)
}

/// Adds the counts of every `.rs` file under `dir` to `row`; the `pub`
/// lines only when `src` is set.
fn count_dir(dir: &Path, src: bool, row: &mut Row) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            count_dir(&path, src || path.ends_with("src"), row);
        } else if path.extension().is_some_and(|e| e == "rs") {
            for line in std::fs::read_to_string(&path).unwrap().lines() {
                if src {
                    let (i, f) = classify(line);
                    row.1 += i;
                    row.2 += f;
                }
                row.3 += 1;
            }
        }
    }
}

fn measure() -> Vec<Row> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut names: Vec<String> = std::fs::read_dir(&crates)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let recorded: Vec<&str> = RECORDED.iter().map(|r| r.0).collect();
    assert_eq!(names, recorded, "one recorded row per crate, in name order");
    RECORDED
        .iter()
        .map(|&(name, ..)| {
            let mut row = (name, 0, 0, 0);
            count_dir(&crates.join(name), false, &mut row);
            row
        })
        .collect()
}

#[test]
fn classify_matches_the_grep_patterns() {
    assert_eq!(classify("pub fn f() {}"), (1, 0));
    assert_eq!(classify("    pub const fn f() {}"), (1, 0));
    assert_eq!(classify("pub const X: u8 = 0;"), (1, 0));
    assert_eq!(classify("pub use a::b;"), (1, 0));
    assert_eq!(classify("    pub size: u32,"), (0, 1));
    assert_eq!(classify("    pub(crate) size: u32,"), (0, 0));
    assert_eq!(classify("    pub(crate) fn f() {}"), (0, 0));
    assert_eq!(classify("    pub unsafe fn f() {}"), (0, 0));
    assert_eq!(classify("    pub Name: u32,"), (0, 0));
    assert_eq!(classify("    // pub fn f() {}"), (0, 0));
}

#[test]
fn pub_surface_does_not_grow() {
    let rows = measure();
    for r in &rows {
        println!("    {r:?},");
    }
    let mut grown = Vec::new();
    for (got, want) in rows.iter().zip(RECORDED) {
        if got.1 > want.1 || got.2 > want.2 || got.3 > want.3 {
            grown.push(format!(
                "{}: {} pub items (recorded {}), {} pub fields (recorded {}), \
                 {} lines (recorded {})",
                got.0, got.1, want.1, got.2, want.2, got.3, want.3
            ));
        }
    }
    assert!(
        grown.is_empty(),
        "a crate grew:\n{}\nIf the new pub items are named outside their crate, \
         or the new lines are worth their keep, raise RECORDED in \
         crates/core/tests/pub_surface.rs (the rows above are printed with \
         --nocapture) and say why in the commit; otherwise make the items \
         pub(crate).",
        grown.join("\n")
    );
}
