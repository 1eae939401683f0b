//! The workspace's one strict JSON layer — hand-rolled, no serde.
//!
//! Every wire schema the workspace speaks goes through this module, so
//! there is exactly one notion of "strict":
//!
//! * the archive readers — `qdc-telemetry/v1`
//!   ([`TelemetryReport::from_jsonl`](crate::TelemetryReport::from_jsonl))
//!   and `qdc-telemetry-stream/v1` ([`StreamReader`](crate::StreamReader))
//!   — drive a `Cursor` token by token through the exact grammar their
//!   writer emits and reject everything else with a line-numbered error;
//! * the campaign, spec and service documents parse into a [`Json`]
//!   tree ([`parse`]) and are checked against a fixed-order key
//!   [`Table`] ([`check`]) or, for request bodies, [`require_keys`].
//!
//! The rules, written once in `Cursor`: ASCII whitespace is allowed
//! between any two tokens and nowhere else; literals (`null`, `true`,
//! `false`, punctuation) match byte for byte; numbers are canonical
//! `u64`s (no sign, fraction, exponent or leading zero, and nothing
//! above `u64::MAX`); strings decode the JSON escapes, with exactly four
//! hex digits after `\u`; keys of a typed line are matched literally
//! (no writer ever escapes one); trees nest at most [`MAX_DEPTH`] deep.
//!
//! The dialect the writers emit has no floats (metrics are integral,
//! probabilities per-mille), which is what makes "byte-identical output"
//! a meaningful contract: there is no formatting ambiguity left.

use std::fmt::Write as _;

/// A position-annotated parse failure: which line, and what was expected
/// or found. The archive readers' `TelemetryParseError` is built from
/// this via `From`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LineError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was expected or found.
    pub msg: String,
}

/// A strict cursor over one line (or one document) of JSON.
pub(crate) struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(line_no: usize, text: &'a str) -> Self {
        Cursor {
            text,
            pos: 0,
            line: line_no,
        }
    }

    pub(crate) fn err(&self, msg: impl Into<String>) -> LineError {
        LineError {
            line: self.line,
            msg: msg.into(),
        }
    }

    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    /// Up to 20 bytes of what comes next, for error messages.
    fn shown(&self) -> String {
        let rest = self.rest();
        String::from_utf8_lossy(&rest[..rest.len().min(20)]).into_owned()
    }

    fn skip_ws(&mut self) {
        while self.rest().first().is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.rest().first().copied()
    }

    /// Consumes `lit` (after whitespace) or errors.
    pub(crate) fn expect(&mut self, lit: &str) -> Result<(), LineError> {
        self.skip_ws();
        if self.rest().starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{lit}`, found `{}`", self.shown())))
        }
    }

    /// Whether the key `"name"` comes next (after whitespace).
    fn at_key(&mut self, name: &str) -> bool {
        self.skip_ws();
        let rest = self.rest();
        rest.len() > name.len() + 1
            && rest[0] == b'"'
            && rest[1..].starts_with(name.as_bytes())
            && rest[name.len() + 1] == b'"'
    }

    /// Consumes the key `"name"` and then `:`, skipping whitespace before
    /// each, or errors.
    pub(crate) fn key(&mut self, name: &str) -> Result<(), LineError> {
        if !self.at_key(name) {
            let found = self.shown();
            return Err(self.err(format!("expected key `\"{name}\"`, found `{found}`")));
        }
        self.pos += name.len() + 2;
        self.expect(":")
    }

    /// Consumes `,"name":` if the optional field `name` comes next, and
    /// reports whether it did; otherwise consumes nothing.
    pub(crate) fn opt_key(&mut self, name: &str) -> Result<bool, LineError> {
        let start = self.pos;
        if self.peek() == Some(b',') {
            self.pos += 1;
            if self.at_key(name) {
                self.key(name)?;
                return Ok(true);
            }
        }
        self.pos = start;
        Ok(false)
    }

    /// Whether an object whose first key is `name` comes next, without
    /// consuming anything.
    pub(crate) fn opens_with(&mut self, name: &str) -> bool {
        let start = self.pos;
        let hit = self.peek() == Some(b'{') && {
            self.pos += 1;
            self.at_key(name)
        };
        self.pos = start;
        hit
    }

    /// Consumes one canonical unsigned integer: digits only, no leading
    /// zero (a lenient scanner would bless `007`, whose re-emission
    /// differs from its input), at most `u64::MAX`.
    pub(crate) fn parse_u64(&mut self) -> Result<u64, LineError> {
        self.skip_ws();
        let digits = self
            .rest()
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        let start = self.pos;
        self.pos += digits;
        match digits {
            0 => Err(self.err("expected an unsigned integer")),
            _ if digits > 1 && self.text.as_bytes()[start] == b'0' => {
                Err(self.err("integer has a leading zero"))
            }
            _ => self.text[start..self.pos]
                .parse()
                .map_err(|_| self.err("integer out of range")),
        }
    }

    /// Consumes `[n1,…,nN]`: exactly `N` canonical integers.
    pub(crate) fn u64s<const N: usize>(&mut self) -> Result<[u64; N], LineError> {
        let mut out = [0; N];
        self.expect("[")?;
        for (i, slot) in out.iter_mut().enumerate() {
            if i > 0 {
                self.expect(",")?;
            }
            *slot = self.parse_u64()?;
        }
        self.expect("]")?;
        Ok(out)
    }

    /// Consumes `open`, then zero or more `item`s separated by `,`, then
    /// `close`.
    pub(crate) fn seq<E: From<LineError>>(
        &mut self,
        open: &str,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.expect(open)?;
        if self.peek() != close.as_bytes().first().copied() {
            loop {
                item(self)?;
                if self.peek() != Some(b',') {
                    break;
                }
                self.pos += 1;
            }
        }
        Ok(self.expect(close)?)
    }

    /// Consumes one string and returns it decoded. Unescaped runs are
    /// copied as whole `&str` slices (`"` and `\` are ASCII, so they
    /// never split a code point), keeping the scan linear.
    pub(crate) fn string(&mut self) -> Result<String, LineError> {
        self.expect("\"")?;
        let mut s = String::new();
        loop {
            let run = self
                .rest()
                .iter()
                .take_while(|&&b| b != b'"' && b != b'\\')
                .count();
            s.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            let Some(&b) = self.rest().first() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(s);
            }
            let esc = self.rest().first().copied();
            self.pos += 1;
            match esc {
                Some(b'"') => s.push('"'),
                Some(b'\\') => s.push('\\'),
                Some(b'/') => s.push('/'),
                Some(b'n') => s.push('\n'),
                Some(b't') => s.push('\t'),
                Some(b'r') => s.push('\r'),
                Some(b'u') => {
                    let code = self
                        .rest()
                        .get(..4)
                        .and_then(|hex| {
                            hex.iter().try_fold(0u32, |acc, &h| {
                                Some(acc * 16 + char::from(h).to_digit(16)?)
                            })
                        })
                        .ok_or_else(|| self.err("`\\u` needs exactly four hex digits"))?;
                    s.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u code point"))?);
                    self.pos += 4;
                }
                other => return Err(self.err(format!("bad escape {:?}", other.map(char::from)))),
            }
        }
    }

    /// Requires the end of input (after whitespace).
    pub(crate) fn end(&mut self) -> Result<(), LineError> {
        if self.peek().is_none() {
            Ok(())
        } else {
            Err(self.err("trailing garbage"))
        }
    }
}

/// A JSON value restricted to the dialect the writers emit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number shape the writers emit).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and is the emission
    /// order, so serialization is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a key in an object (`None` for other shapes or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), deterministically.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest accepted array/object nesting. Campaign documents are at
/// most a handful of levels deep; the bound exists because the parser
/// recurses per level, so without it an untrusted document of a few
/// kilobytes of `[` could overflow the stack of whatever thread parses
/// it (the service parses request bodies on 2 MiB connection threads).
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document, rejecting trailing garbage and nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut c = Cursor::new(1, text);
    value(&mut c, 0)
        .and_then(|v| c.end().map(|()| v))
        .map_err(|e| format!("{} at byte {}", e.msg, c.pos))
}

/// One value nested inside `depth` arrays/objects.
fn value(c: &mut Cursor<'_>, depth: usize) -> Result<Json, LineError> {
    match c.peek() {
        Some(b'n') => c.expect("null").map(|()| Json::Null),
        Some(b't') => c.expect("true").map(|()| Json::Bool(true)),
        Some(b'f') => c.expect("false").map(|()| Json::Bool(false)),
        Some(b'"') => c.string().map(Json::Str),
        Some(b) if b.is_ascii_digit() => c.parse_u64().map(Json::Num),
        Some(b'[' | b'{') if depth == MAX_DEPTH => {
            Err(c.err(format!("nesting deeper than {MAX_DEPTH} levels")))
        }
        Some(b'[') => {
            let mut items = Vec::new();
            c.seq("[", "]", |c| {
                items.push(value(c, depth + 1)?);
                Ok::<_, LineError>(())
            })?;
            Ok(Json::Arr(items))
        }
        Some(b'{') => {
            let mut fields = Vec::new();
            c.seq("{", "}", |c| {
                let key = c.string()?;
                c.expect(":")?;
                fields.push((key, value(c, depth + 1)?));
                Ok::<_, LineError>(())
            })?;
            Ok(Json::Obj(fields))
        }
        Some(b) => Err(c.err(format!("unexpected byte `{}`", b as char))),
        None => Err(c.err("unexpected end of input")),
    }
}

/// Matches an object's key sequence against `required` (in order),
/// optionally followed — still in order — by a prefix of `optional`,
/// and returns its fields. Field *order* is part of the byte-identical
/// output contract, so a reordered key is an error, not a stylistic
/// variation.
fn ordered_fields<'d, T>(
    doc: &'d Json,
    required: &[T],
    optional: &[T],
    name: impl Fn(&T) -> &str,
) -> Result<&'d [(String, Json)], String> {
    let Json::Obj(fields) = doc else {
        return Err("expected a JSON object".into());
    };
    for (i, want) in required.iter().map(&name).enumerate() {
        match fields.get(i) {
            Some((k, _)) if k == want => {}
            Some((k, _)) => return Err(format!("field {i}: expected key `{want}`, found `{k}`")),
            None => return Err(format!("missing required key `{want}`")),
        }
    }
    let tail = &fields[required.len()..];
    if tail.len() > optional.len() {
        return Err(format!(
            "unexpected trailing key `{}`",
            tail[optional.len()].0
        ));
    }
    for ((k, _), want) in tail.iter().zip(optional.iter().map(&name)) {
        if k != want {
            return Err(format!("unexpected key `{k}` (expected optional `{want}`)"));
        }
    }
    Ok(fields)
}

/// Checks that `doc` is an object whose key sequence is exactly
/// `required` (in order), optionally followed — still in order — by a
/// prefix of `optional_tail`. Values are not inspected; [`check`] is the
/// typed form.
pub fn require_keys(doc: &Json, required: &[&str], optional_tail: &[&str]) -> Result<(), String> {
    ordered_fields(doc, required, optional_tail, |k| k).map(drop)
}

/// The value shapes a [`Table`] field can demand.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// The schema tag: exactly this string.
    Tag(&'static str),
    /// An unsigned integer in the inclusive range.
    U64In(u64, u64),
    /// Any string.
    Str,
    /// A non-empty string.
    NonEmptyStr,
    /// One of these strings.
    OneOf(&'static [&'static str]),
    /// A boolean.
    Bool,
    /// A boolean or `null`.
    BoolOrNull,
    /// A string or `null`.
    StrOrNull,
    /// Any object (open: its keys and values are not checked).
    Object,
    /// An object matching the nested table.
    Table(&'static Table),
    /// An object whose every value matches the nested table.
    MapOf(&'static Table),
}

impl Shape {
    /// Any unsigned integer.
    pub const U64: Shape = Shape::U64In(0, u64::MAX);

    fn describe(&self) -> String {
        match *self {
            Shape::Tag(tag) => format!("`{tag}`"),
            Shape::U64In(0, u64::MAX) => "an unsigned integer".into(),
            Shape::U64In(lo, u64::MAX) => format!("an integer of at least {lo}"),
            Shape::U64In(lo, hi) => format!("an integer in {lo}..={hi}"),
            Shape::Str => "a string".into(),
            Shape::NonEmptyStr => "a non-empty string".into(),
            Shape::OneOf(words) => format!("one of {}", words.join("/")),
            Shape::Bool => "a boolean".into(),
            Shape::BoolOrNull => "a boolean or null".into(),
            Shape::StrOrNull => "a string or null".into(),
            Shape::Object | Shape::Table(_) | Shape::MapOf(_) => "an object".into(),
        }
    }

    fn check(&self, key: &str, v: &Json) -> Result<(), String> {
        let ok = match (*self, v) {
            (Shape::Tag(tag), Json::Str(s)) => s == tag,
            (Shape::U64In(lo, hi), Json::Num(n)) => (lo..=hi).contains(n),
            (Shape::NonEmptyStr, Json::Str(s)) => !s.is_empty(),
            (Shape::OneOf(words), Json::Str(s)) => words.contains(&s.as_str()),
            (Shape::Str | Shape::StrOrNull, Json::Str(_))
            | (Shape::Bool | Shape::BoolOrNull, Json::Bool(_))
            | (Shape::BoolOrNull | Shape::StrOrNull, Json::Null)
            | (Shape::Object, Json::Obj(_)) => true,
            (Shape::Table(table), _) => {
                return check(v, table).map_err(|e| format!("`{key}`: {e}"));
            }
            (Shape::MapOf(table), Json::Obj(entries)) => {
                for (k, entry) in entries {
                    check(entry, table).map_err(|e| format!("`{key}` entry `{k}`: {e}"))?;
                }
                true
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("`{key}` must be {}", self.describe()))
        }
    }
}

/// One schema as a fixed-order key table: the `required` keys in order,
/// then — still in order — any prefix of the `optional` keys, each value
/// of its [`Shape`].
#[derive(Debug)]
pub struct Table {
    /// Keys every document carries, in emission order.
    pub required: &'static [(&'static str, Shape)],
    /// Trailing keys a document may carry, in emission order.
    pub optional: &'static [(&'static str, Shape)],
}

/// Checks `doc` against `table`: exact key order, then every value's
/// shape. The error names the first offending key (with the path to it
/// for nested tables).
pub fn check(doc: &Json, table: &Table) -> Result<(), String> {
    let fields = ordered_fields(doc, table.required, table.optional, |f| f.0)?;
    let shapes = table.required.iter().chain(table.optional);
    fields
        .iter()
        .zip(shapes)
        .try_for_each(|((key, v), (_, shape))| shape.check(key, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_structurally_and_byte_exactly() {
        let v = Json::obj([
            ("schema", Json::Str("qdc-campaign/v1".into())),
            ("points", Json::Num(32)),
            ("ok", Json::Bool(true)),
            ("err", Json::Null),
            (
                "list",
                Json::Arr(vec![Json::Num(1), Json::Num(2), Json::Num(u64::MAX)]),
            ),
            ("nested", Json::obj([("k", Json::Str("v".into()))])),
        ]);
        let text = v.to_json();
        let back = parse(&text).expect("parses");
        assert_eq!(back, v);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn json_escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}ü".into());
        let back = parse(&v.to_json()).expect("parses");
        assert_eq!(back, v);
    }

    #[test]
    fn json_accessors() {
        let v = parse("{\"a\": 3, \"b\": [true, null]}").expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(
            v.get("b"),
            Some(&Json::Arr(vec![Json::Bool(true), Json::Null]))
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn json_require_keys_enforces_exact_order() {
        let doc = Json::obj([
            ("a", Json::Num(1)),
            ("b", Json::Num(2)),
            ("wall", Json::Num(3)),
        ]);
        require_keys(&doc, &["a", "b"], &["wall"]).expect("exact match with optional tail");
        require_keys(&doc, &["a", "b", "wall"], &[]).expect("tail may be required instead");
        assert!(
            require_keys(&doc, &["b", "a"], &["wall"]).is_err(),
            "order matters"
        );
        assert!(
            require_keys(&doc, &["a", "b"], &[]).is_err(),
            "unexpected trailing key"
        );
        assert!(
            require_keys(&doc, &["a", "b", "wall", "z"], &[]).is_err(),
            "missing key"
        );
        assert!(
            require_keys(&doc, &["a", "b"], &["other"]).is_err(),
            "wrong optional key"
        );
        assert!(require_keys(&Json::Num(1), &[], &[]).is_err(), "non-object");
    }

    #[test]
    fn json_check_enforces_shapes_through_nested_tables() {
        const INNER: Table = Table {
            required: &[("n", Shape::U64In(1, 9))],
            optional: &[],
        };
        const OUTER: Table = Table {
            required: &[
                ("schema", Shape::Tag("t/v1")),
                ("kind", Shape::NonEmptyStr),
                ("state", Shape::OneOf(&["on", "off"])),
                ("inner", Shape::Table(&INNER)),
                ("map", Shape::MapOf(&INNER)),
            ],
            optional: &[("note", Shape::StrOrNull)],
        };
        let doc = |text: &str| parse(text).expect("well-formed");
        let good = "{\"schema\":\"t/v1\",\"kind\":\"k\",\"state\":\"on\",\
                    \"inner\":{\"n\":1},\"map\":{\"a\":{\"n\":9}}";
        check(&doc(&format!("{good}}}")), &OUTER).expect("optional tail may be absent");
        check(&doc(&format!("{good},\"note\":null}}")), &OUTER).expect("null note");
        for (bad, want) in [
            (good.replace("t/v1", "t/v2"), "`schema` must be `t/v1`"),
            (
                good.replace("\"k\"", "\"\""),
                "`kind` must be a non-empty string",
            ),
            (
                good.replace("\"on\"", "\"dim\""),
                "`state` must be one of on/off",
            ),
            (
                good.replace("{\"n\":1}", "{\"n\":0}"),
                "`inner`: `n` must be an integer in 1..=9",
            ),
            (
                good.replace("{\"n\":9}", "{\"m\":9}"),
                "`map` entry `a`: field 0: expected key `n`, found `m`",
            ),
        ] {
            let err = check(&doc(&format!("{bad}}}")), &OUTER).expect_err(want);
            assert_eq!(err, want);
        }
        let err = check(&doc(&format!("{good},\"note\":7}}")), &OUTER).unwrap_err();
        assert_eq!(err, "`note` must be a string or null");
    }

    #[test]
    fn json_bounds_nesting_depth() {
        // Exactly at the bound: fine, both pure arrays and mixed shapes.
        let at_limit = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        parse(&at_limit).expect("MAX_DEPTH levels parse");
        let mixed = format!(
            "{}{{\"k\":1}}{}",
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        parse(&mixed).expect("objects count toward the same bound");
        // Depth is the *current* nesting, not a lifetime total: closing
        // a bracket returns its level to the budget.
        let siblings = format!("[{}1]", "[1],".repeat(MAX_DEPTH * 4));
        parse(&siblings).expect("siblings do not accumulate depth");
        // One past the bound: rejected with a depth error, and — the
        // point of the bound — a pathological body must not overflow
        // the stack. 32k unclosed brackets would have recursed 32k
        // frames deep before this fix.
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&over).expect_err("MAX_DEPTH + 1 rejected");
        assert!(err.contains("nesting deeper"), "{err}");
        let bomb = "[".repeat(32 * 1024);
        let err = parse(&bomb).expect_err("deep bomb rejected, no overflow");
        assert!(err.contains("nesting deeper"), "{err}");
        let obj_bomb = "{\"k\":".repeat(32 * 1024);
        let err = parse(&obj_bomb).expect_err("object bomb rejected");
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn json_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} extra",
            "\"unterminated",
            "01x",
            "07",
            "-5",
            "\"\\u+041\"",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn json_string_scan_is_linear_in_non_ascii_input() {
        // 64 KiB (the service's request-body cap) of two-byte `é`: the
        // scan must copy runs, not re-validate the rest of the input at
        // every code point.
        let body = "é".repeat(32 * 1024);
        let doc = format!("\"{body}\"");
        let start = std::time::Instant::now();
        assert_eq!(parse(&doc), Ok(Json::Str(body)));
        let took = start.elapsed();
        assert!(took.as_millis() < 100, "64 KiB string took {took:?}");
    }
}
