//! JSONL encoding for trace exports, plus a parser for round-trip tests.
//!
//! One event per line, a flat JSON object with a fixed field set:
//!
//! ```text
//! {"kind":"span","name":"serve.request","thread":3,"ts_us":1042,"dur_us":17,"depth":0,"a":1,"b":0}
//! ```
//!
//! * `kind` — `"span"` (has a duration) or `"event"` (instant).
//! * `name` — the span/event name; JSON string escaping applies.
//! * `thread` — dense tracing-thread id.
//! * `ts_us` / `dur_us` — microseconds since the process epoch / span
//!   duration (`0` for events).
//! * `depth` — span-nesting depth on the recording thread.
//! * `a` / `b` — free-form per-name payload words.
//!
//! The encoder always emits the fields in the order above; the parser
//! accepts them in any order and ignores unknown fields, so the format
//! can grow without breaking existing consumers.

use crate::trace::{EventKind, TraceEvent};

/// Appends the JSON object for `e` (no trailing newline) to `out`.
pub fn encode_event(out: &mut String, e: &TraceEvent) {
    out.push_str("{\"kind\":\"");
    out.push_str(e.kind.as_str());
    out.push_str("\",\"name\":\"");
    escape_into(out, e.name);
    out.push_str("\",\"thread\":");
    out.push_str(&e.thread.to_string());
    out.push_str(",\"ts_us\":");
    out.push_str(&e.ts_us.to_string());
    out.push_str(",\"dur_us\":");
    out.push_str(&e.dur_us.to_string());
    out.push_str(",\"depth\":");
    out.push_str(&e.depth.to_string());
    out.push_str(",\"a\":");
    out.push_str(&e.a.to_string());
    out.push_str(",\"b\":");
    out.push_str(&e.b.to_string());
    out.push('}');
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// A trace record parsed back from JSONL. Mirrors
/// [`TraceEvent`] with an owned name (the parser cannot
/// produce a `&'static str`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedEvent {
    /// Record type.
    pub kind: EventKind,
    /// Span/event name.
    pub name: String,
    /// Dense tracing-thread id.
    pub thread: u64,
    /// Microseconds since the process epoch.
    pub ts_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Span-nesting depth.
    pub depth: u32,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl ParsedEvent {
    /// Field-wise equality against an in-memory [`TraceEvent`].
    pub fn matches(&self, e: &TraceEvent) -> bool {
        self.kind == e.kind
            && self.name == e.name
            && self.thread == e.thread
            && self.ts_us == e.ts_us
            && self.dur_us == e.dur_us
            && self.depth == e.depth
            && self.a == e.a
            && self.b == e.b
    }
}

/// Parses one JSONL line. Returns `None` on malformed input or a missing
/// required field.
pub fn parse_event(line: &str) -> Option<ParsedEvent> {
    let mut p = Parser {
        s: line.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut kind = None;
    let mut name = None;
    let mut thread = None;
    let mut ts_us = None;
    let mut dur_us = None;
    let mut depth = None;
    let mut a = None;
    let mut b = None;
    loop {
        p.skip_ws();
        if p.eat(b'}') {
            break;
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        match key.as_str() {
            "kind" => {
                kind = Some(match p.string()?.as_str() {
                    "span" => EventKind::Span,
                    "event" => EventKind::Event,
                    _ => return None,
                })
            }
            "name" => name = Some(p.string()?),
            "thread" => thread = Some(p.number()?),
            "ts_us" => ts_us = Some(p.number()?),
            "dur_us" => dur_us = Some(p.number()?),
            "depth" => depth = Some(u32::try_from(p.number()?).ok()?),
            "a" => a = Some(p.number()?),
            "b" => b = Some(p.number()?),
            // Unknown field: skip its value (string or number).
            _ => p.skip_value()?,
        }
        p.skip_ws();
        if !p.eat(b',') {
            p.skip_ws();
            p.expect(b'}')?;
            break;
        }
    }
    p.skip_ws();
    if p.i != p.s.len() {
        return None;
    }
    Some(ParsedEvent {
        kind: kind?,
        name: name?,
        thread: thread?,
        ts_us: ts_us?,
        dur_us: dur_us?,
        depth: depth?,
        a: a?,
        b: b?,
    })
}

/// Parses a whole JSONL document, one event per non-empty line. Returns
/// `None` if any line is malformed.
pub fn parse_jsonl(text: &str) -> Option<Vec<ParsedEvent>> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_event)
        .collect()
}

/// Minimal cursor over the fixed JSONL schema.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Option<()> {
        if self.eat(c) {
            Some(())
        } else {
            None
        }
    }

    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.i += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.s.get(self.i + 1..self.i + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.i += 4;
                        }
                        _ => return None,
                    }
                    self.i += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar from the remaining input.
                    let rest = std::str::from_utf8(&self.s[self.i..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Option<u64> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return None;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()?
            .parse()
            .ok()
    }

    fn skip_value(&mut self) -> Option<()> {
        match self.peek()? {
            b'"' => self.string().map(|_| ()),
            c if c.is_ascii_digit() => self.number().map(|_| ()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent {
            name: "json_test.sample",
            kind: EventKind::Span,
            thread: 4,
            ts_us: 123_456,
            dur_us: 789,
            depth: 2,
            a: u64::MAX,
            b: 0,
        }
    }

    #[test]
    fn encode_parse_round_trip() {
        let e = sample();
        let mut line = String::new();
        encode_event(&mut line, &e);
        let parsed = parse_event(&line).unwrap();
        assert!(parsed.matches(&e), "{parsed:?} vs {e:?}");
    }

    #[test]
    fn parser_accepts_any_field_order_and_unknown_fields() {
        let line = r#"{"b":0,"a":1,"depth":0,"dur_us":0,"ts_us":9,"thread":2,"extra":"x","name":"n","kind":"event"}"#;
        let parsed = parse_event(line).unwrap();
        assert_eq!(parsed.name, "n");
        assert_eq!(parsed.kind, EventKind::Event);
        assert_eq!(parsed.ts_us, 9);
    }

    #[test]
    fn escaped_names_survive() {
        let e = TraceEvent {
            name: "weird \"name\"\twith\\stuff",
            ..sample()
        };
        let mut line = String::new();
        encode_event(&mut line, &e);
        let parsed = parse_event(&line).unwrap();
        assert_eq!(parsed.name, e.name);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "not json",
            r#"{"kind":"span"}"#, // missing fields
            r#"{"kind":"nope","name":"n","thread":0,"ts_us":0,"dur_us":0,"depth":0,"a":0,"b":0}"#,
            r#"{"kind":"span","name":"n","thread":0,"ts_us":0,"dur_us":0,"depth":0,"a":0,"b":0} trailing"#,
        ] {
            assert!(parse_event(bad).is_none(), "accepted: {bad}");
        }
    }

    #[test]
    fn parse_jsonl_handles_blank_lines() {
        let e = sample();
        let mut doc = String::new();
        encode_event(&mut doc, &e);
        doc.push('\n');
        doc.push('\n');
        encode_event(&mut doc, &e);
        doc.push('\n');
        let events = parse_jsonl(&doc).unwrap();
        assert_eq!(events.len(), 2);
    }
}
