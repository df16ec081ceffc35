//! Compact and pretty JSON writers.

use std::fmt::Write as _;

use crate::Json;

impl Json {
    /// Renders the value as compact JSON (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Renders the value as pretty JSON (two-space indent, one pair or
    /// element per line), matching the layout `serde_json::to_string_pretty`
    /// produced for the same documents.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Appends the pretty rendering of this value to `out`, laid out as it
    /// would be `depth` levels deep inside an enclosing pretty document
    /// (nested lines indent by `2 * (depth + 1)` spaces). Lets a streaming
    /// writer emit the fixed parts of a document itself and hand the
    /// open-ended parts here.
    pub fn write_pretty(&self, out: &mut String, depth: usize) {
        write_value(out, self, Some(2), depth);
    }
}

fn write_value(out: &mut String, value: &Json, indent: Option<usize>, depth: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Json::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Json::F64(f) => write_f64(out, *f),
        Json::Str(s) => write_string(out, s),
        Json::Array(items) => write_seq(out, indent, depth, '[', ']', items.iter(), |out, item, depth| {
            write_value(out, item, indent, depth);
        }),
        Json::Object(pairs) => {
            write_seq(out, indent, depth, '{', '}', pairs.iter(), |out, (key, item), depth| {
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth);
            });
        }
    }
}

fn write_seq<I, T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: I,
    mut write_item: impl FnMut(&mut String, T, usize),
) where
    I: ExactSizeIterator<Item = T>,
{
    out.push(open);
    let empty = items.len() == 0;
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            push_indent(out, width * (depth + 1));
        }
        write_item(out, item, depth + 1);
    }
    if !empty {
        if let Some(width) = indent {
            out.push('\n');
            push_indent(out, width * depth);
        }
    }
    out.push(close);
}

/// Appends `n` spaces, copied from a static run rather than a fresh
/// `String` per line.
fn push_indent(out: &mut String, mut n: usize) {
    const SPACES: &str = "                                                                ";
    while n > 0 {
        let run = n.min(SPACES.len());
        out.push_str(&SPACES[..run]);
        n -= run;
    }
}

/// Writes a finite float so that re-parsing yields the same bits; whole
/// floats keep a trailing `.0` (or, from 1e15 up, an exponent) so they
/// stay floats across a round-trip instead of reading back as integers.
/// Non-finite values have no JSON representation and are written as `null`.
fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f.fract() == 0.0 && f.abs() < 1e15 {
        let _ = write!(out, "{f:.1}");
    } else if f.fract() == 0.0 {
        // Shortest round-trip digits in exponent form: `1e15`, `-2.5e20`.
        let _ = write!(out, "{f:e}");
    } else {
        // Rust's shortest round-trip formatting.
        let _ = write!(out, "{f}");
    }
}

/// Appends `s` as a quoted JSON string literal. Every byte that needs an
/// escape is ASCII, so the runs between escapes are copied whole — a
/// string with nothing to escape goes out in a single `push_str`.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run_start = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte != b'"' && byte != b'\\' && byte >= 0x20 {
            continue;
        }
        out.push_str(&s[run_start..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use nimblock_check::{check, prop_assert_eq, Gen};

    use super::*;

    fn sample() -> Json {
        Json::Object(vec![
            ("name".into(), Json::Str("a\"b".into())),
            ("n".into(), Json::U64(3)),
            ("xs".into(), Json::Array(vec![Json::U64(1), Json::Null])),
            ("empty".into(), Json::Array(vec![])),
        ])
    }

    #[test]
    fn compact_has_no_whitespace() {
        assert_eq!(
            sample().to_compact(),
            r#"{"name":"a\"b","n":3,"xs":[1,null],"empty":[]}"#
        );
    }

    #[test]
    fn pretty_indents_two_spaces() {
        let text = sample().to_pretty();
        assert!(text.starts_with("{\n  \"name\": \"a\\\"b\",\n  \"n\": 3,"), "{text}");
        assert!(text.contains("\"xs\": [\n    1,\n    null\n  ]"), "{text}");
        assert!(text.contains("\"empty\": []"), "{text}");
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        assert_eq!(Json::F64(2.0).to_compact(), "2.0");
        assert_eq!(Json::F64(-0.5).to_compact(), "-0.5");
        assert_eq!(Json::F64(f64::NAN).to_compact(), "null");
        // From 1e15 up an exponent keeps them floats: integer text would
        // parse back as U64.
        assert_eq!(Json::F64(1e15).to_compact(), "1e15");
        assert_eq!(Json::F64(-2.5e20).to_compact(), "-2.5e20");
        assert_eq!(crate::parse("1e15").unwrap(), Json::F64(1e15));
    }

    #[test]
    fn control_characters_are_escaped() {
        // Every code point below 0x20, plus the quote and the backslash.
        for c in (0..0x20u32).filter_map(char::from_u32).chain(['"', '\\']) {
            let escape = match c {
                '"' => "\\\"".to_owned(),
                '\\' => "\\\\".to_owned(),
                '\n' => "\\n".to_owned(),
                '\t' => "\\t".to_owned(),
                '\r' => "\\r".to_owned(),
                '\u{8}' => "\\b".to_owned(),
                '\u{c}' => "\\f".to_owned(),
                c => format!("\\u{:04x}", c as u32),
            };
            let value = Json::Str(format!("a{c}b"));
            for text in [value.to_compact(), value.to_pretty()] {
                assert_eq!(text, format!("\"a{escape}b\""), "{c:?}");
                assert_eq!(crate::parse(&text).unwrap(), value);
            }
        }
    }

    #[test]
    fn deep_indentation_is_exact() {
        // Nesting past the static run of spaces still indents exactly.
        let mut value = Json::U64(7);
        for _ in 0..40 {
            value = Json::Array(vec![value]);
        }
        let text = value.to_pretty();
        assert!(text.contains(&format!("\n{}7\n", " ".repeat(80))), "{text}");
        assert_eq!(crate::parse(&text).unwrap(), value);
    }

    /// Strings drawn from every code point that must be escaped plus a
    /// few that must not (ASCII, two-, three- and four-byte UTF-8).
    fn string(g: &mut Gen) -> String {
        const PLAIN: [char; 6] = ['a', 'Z', ' ', '/', '\u{e9}', '\u{1f680}'];
        g.vec(0..=8, |g| match g.u32(0..=2) {
            0 => char::from(g.u32(0..=0x1f) as u8),
            1 => *g.pick(&['"', '\\', '\u{7f}', '\u{20ac}']),
            _ => *g.pick(&PLAIN),
        })
        .into_iter()
        .collect()
    }

    fn value(g: &mut Gen, depth: u32) -> Json {
        let leaf = depth == 0 || g.u32(0..=2) > 0;
        match (leaf, g.u32(0..=6)) {
            (true, 0) => Json::Null,
            (true, 1) => Json::Bool(g.bool()),
            (true, 2) => Json::U64(g.u64(0..=u64::MAX)),
            // The parser reads non-negative integers back as U64.
            (true, 3) => Json::I64(-(g.u64(1..=i64::MAX as u64) as i64)),
            (true, 4) => {
                let bits = f64::from_bits(g.u64(0..=u64::MAX));
                Json::F64(if bits.is_finite() { bits } else { g.u64(0..=u64::MAX) as f64 })
            }
            (true, _) => Json::Str(string(g)),
            (false, kind) if kind % 2 == 0 => Json::Array(g.vec(0..=4, |g| value(g, depth - 1))),
            (false, _) => Json::Object(g.vec(0..=4, |g| (string(g), value(g, depth - 1)))),
        }
    }

    #[test]
    fn pretty_and_compact_parse_back_to_the_same_value() {
        check("writer_roundtrip", |g| {
            let value = value(g, 4);
            for text in [value.to_compact(), value.to_pretty()] {
                let back = crate::parse(&text).map_err(|e| format!("{e}: {text:?}"))?;
                prop_assert_eq!(back, value);
            }
            Ok(())
        });
    }
}
