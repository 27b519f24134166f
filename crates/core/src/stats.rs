//! Mechanical specification-size statistics (Table I support).
//!
//! The paper's Table I reports the size of each ISA description and — the
//! headline development-cost claim — the number of lines needed per
//! experimental buildset. Our descriptions are Rust source; these helpers
//! count them the way the paper counts LIS code: excluding comments and
//! blank lines.

/// Line counts for a piece of specification source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineStats {
    /// Total lines in the source.
    pub total: usize,
    /// Lines that are neither blank nor comment-only.
    pub code: usize,
}

impl LineStats {
    /// Sums two counts.
    #[allow(clippy::should_implement_trait)] // counting, not arithmetic on numbers
    pub fn add(self, other: LineStats) -> LineStats {
        LineStats { total: self.total + other.total, code: self.code + other.code }
    }
}

/// Counts lines the way the paper's Table I does: code lines exclude blank
/// lines and comment-only lines (`//`, `///`, `//!`, and `/* ... */` blocks).
/// Counting stops at the file's `#[cfg(test)]` module: tests describe
/// nothing and are not tooling.
pub fn count_lines(src: &str) -> LineStats {
    let mut stats = LineStats::default();
    let mut in_block_comment = false;
    for line in src.lines() {
        let t = line.trim();
        if t == "#[cfg(test)]" {
            break;
        }
        stats.total += 1;
        if t.is_empty() {
            continue;
        }
        if in_block_comment {
            if t.contains("*/") {
                in_block_comment = false;
                // Anything after the close on the same line is rare in our
                // sources; treat the line as comment-only.
            }
            continue;
        }
        if t.starts_with("//") {
            continue;
        }
        if t.starts_with("/*") {
            if !t.contains("*/") {
                in_block_comment = true;
            }
            continue;
        }
        stats.code += 1;
    }
    stats
}

/// Counts the invocations of a given macro (e.g. `buildset!`) in `src` and
/// the code lines they span, for the "lines per experimental buildset"
/// statistic. Uses brace matching from each `name! {`.
pub fn count_macro_blocks(src: &str, name: &str) -> (usize, usize) {
    let needle = format!("{name}!");
    let mut count = 0usize;
    let mut lines = 0usize;
    let mut pos = 0usize;
    while let Some(found) = src[pos..].find(&needle) {
        let start = pos + found;
        // Only a real invocation: the next non-whitespace character after
        // `name!` must be `{` (doc references like `[`name!`]` are skipped),
        // and the invocation must not sit inside a comment line (doc
        // examples are commented out and do not count as interfaces).
        let line_start = src[..start].rfind('\n').map_or(0, |i| i + 1);
        if src[line_start..start].contains("//") {
            pos = start + needle.len();
            continue;
        }
        let after = start + needle.len();
        let rest = src[after..].trim_start();
        if !rest.starts_with('{') {
            pos = after;
            continue;
        }
        let open = after + (src[after..].len() - rest.len());
        let mut depth = 0i32;
        let mut end = open;
        for (i, c) in src[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + i;
                        break;
                    }
                }
                _ => {}
            }
        }
        if depth != 0 {
            break;
        }
        count += 1;
        lines += count_lines(&src[start..=end]).code;
        pos = end + 1;
    }
    (count, lines)
}

/// Per-ISA specification statistics, assembled by each ISA crate for the
/// Table I harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecStats {
    /// ISA name.
    pub isa: &'static str,
    /// Code lines of the ISA description (encodings + semantics).
    pub isa_description_lines: usize,
    /// Code lines of OS/simulator support (syscall conventions, loaders).
    pub os_support_lines: usize,
    /// Code lines of assembler/disassembler support (the paper's "binary
    /// translator support" analog: tooling derived from the description).
    pub tooling_lines: usize,
    /// Number of instructions in the description.
    pub num_instructions: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_skip_comments_and_blanks() {
        let src = "\n// comment\nlet x = 1;\n\n/// doc\nlet y = 2; // trailing\n";
        let s = count_lines(src);
        assert_eq!(s.code, 2);
        assert_eq!(s.total, 6);
    }

    #[test]
    fn counting_stops_at_the_test_module() {
        let src = "code();\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let s = count_lines(src);
        assert_eq!((s.code, s.total), (1, 2));
    }

    #[test]
    fn counts_block_comments() {
        let src = "/*\n block\n*/\ncode();\n/* one-liner */\nmore();\n";
        let s = count_lines(src);
        assert_eq!(s.code, 2);
    }

    #[test]
    fn macro_blocks_counted() {
        let src = r#"
buildset! {
    pub const A: BuildsetDef = {
        name: "a",
        semantic: One,
        visibility: Visibility::MIN,
        speculation: false,
    };
}
fn unrelated() {}
buildset! {
    pub const B: BuildsetDef = {
        name: "b",
        semantic: Step,
        visibility: Visibility::ALL,
        speculation: true,
    };
}
"#;
        let (count, lines) = count_macro_blocks(src, "buildset");
        assert_eq!(count, 2);
        // Each block is 8 code lines here; "about a dozen" per interface.
        assert_eq!(lines, 16);
    }

    #[test]
    fn unterminated_macro_is_ignored() {
        let (count, lines) = count_macro_blocks("buildset! { {", "buildset");
        assert_eq!((count, lines), (0, 0));
    }
}
