//! Hand-rolled JSON writer. The report is numbers, names and a few labels;
//! the repo vendors no serde, and the benchmark adds no dependency.

/// A JSON value. Objects keep insertion order, so reports diff cleanly.
#[derive(Clone, Debug)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// A finite number; non-finite values are written as `null` (JSON has
    /// no NaN), which `jq` parses and every numeric check then rejects.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
    /// An already-serialized value embedded verbatim (a child process's
    /// result line inside the parent's report).
    Raw(String),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Single-line serialization.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            // `{}` on f64 prints the shortest digits that round-trip, never
            // an exponent: every digit measured, nothing invented.
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
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
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(s) => out.push_str(s),
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::process::{Command, Stdio};

    fn sample() -> Json {
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("tiny", Json::Num(0.000000123)),
            ("big", Json::Num(8407040.0)),
            ("nan", Json::Num(f64::NAN)),
            (
                "label",
                Json::str("quote \" slash \\ tab \t nl \n ctl \u{1}"),
            ),
            (
                "metrics",
                Json::obj([(
                    "round_s",
                    Json::obj([("value", Json::Num(0.2412)), ("unit", Json::str("s"))]),
                )]),
            ),
            (
                "arr",
                Json::Arr(vec![Json::Int(1), Json::Raw("{\"x\":2}".into())]),
            ),
        ])
    }

    #[test]
    fn renders_one_line_with_escapes_and_plain_decimals() {
        let s = sample().render();
        assert!(!s.contains('\n'));
        assert!(s.contains("\"tiny\":0.000000123"), "{s}");
        assert!(s.contains("\"big\":8407040"), "{s}");
        assert!(s.contains("\"nan\":null"));
        assert!(s.contains("quote \\\" slash \\\\ tab \\t nl \\n ctl \\u0001"));
        assert!(s.contains("\"arr\":[1,{\"x\":2}]"));
    }

    /// The satellite's round-trip: what the writer emits, `jq` parses, and
    /// the values come back. Skipped (loudly) where jq is not installed.
    #[test]
    fn output_round_trips_through_jq() {
        let filter = "[.correct, .attempted, (.tiny > 1.2e-7 and .tiny < 1.3e-7), \
                      .metrics.round_s.value, .metrics.round_s.unit, .arr[1].x, .nan, \
                      (.label | length)] | @json";
        let child = Command::new("jq")
            .args(["-r", filter])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn();
        let Ok(mut child) = child else {
            eprintln!("jq not installed; skipping the round-trip");
            return;
        };
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(sample().render().as_bytes())
            .expect("write to jq");
        let out = child.wait_with_output().expect("jq exits");
        assert!(out.status.success(), "jq rejected the writer's output");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            "[true,1000,true,0.2412,\"s\",2,null,32]"
        );
    }
}
