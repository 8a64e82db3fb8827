//! Runs every workload at `--smoke` size through the built binary and holds
//! it to `BENCHMARK.json`: each declared metric prints with its unit, the
//! deterministic metrics repeat exactly for a seed, another seed changes the
//! inputs, and a traced run attributes at least 95% of its wall to layers.
//!
//! ```text
//! cargo test --offline --manifest-path benchmark/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// End-to-end metrics that depend on the inputs alone, never on timing.
const DETERMINISTIC: &[&str] = &[
    "deg_inc_mean",
    "stretch_mean",
    "components",
    "edge_ops_per_repair",
];

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(v) => *v,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }
}

/// A parser for the JSON these files hold: no string escapes.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after the value");
        v
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn expect(&mut self, c: u8) {
        assert_eq!(self.peek() as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    /// Parses `,`-separated items up to the `close` byte.
    fn items(&mut self, close: u8, mut item: impl FnMut(&mut Self)) {
        if self.peek() == close {
            self.i += 1;
            return;
        }
        loop {
            item(self);
            match self.peek() {
                b',' => self.i += 1,
                c if c == close => {
                    self.i += 1;
                    return;
                }
                c => panic!("unexpected {:?} at byte {}", c as char, self.i),
            }
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.items(b'}', |p| {
                    let key = p.value().str().to_string();
                    p.expect(b':');
                    m.insert(key, p.value());
                });
                Json::Obj(m)
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.items(b']', |p| v.push(p.value()));
                Json::Arr(v)
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "string escapes are not expected");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                let word = [&b"true"[..], b"false", b"null"]
                    .into_iter()
                    .find(|w| self.s[self.i..].starts_with(w))
                    .expect("a literal");
                self.i += word.len();
                match word[0] {
                    b't' => Json::Bool(true),
                    b'f' => Json::Bool(false),
                    _ => Json::Null,
                }
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| b"+-.eE0123456789".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

/// `(name, unit)` of each metric in one list of `BENCHMARK.json`.
fn declared(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
}

/// One run's standard output and its parsed result line.
struct Output {
    text: String,
    result: Json,
}

impl Output {
    fn metric(&self, name: &str) -> f64 {
        self.result.get("metrics").get(name).get("value").num()
    }

    /// The input fingerprint the run printed.
    fn fingerprint(&self) -> &str {
        let at = self
            .text
            .find("input fingerprint")
            .expect("fingerprint printed");
        let rest = &self.text[at..];
        let hex = rest.find("0x").expect("hex fingerprint");
        &rest[hex..hex + 18]
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .output()
        .expect("the benchmark binary runs");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{text}"
    );
    let result = Parser::parse(text.lines().last().expect("a result line"));
    Output { text, result }
}

/// Every declared metric is in the result with its unit and prints on its
/// own line with that unit; nothing undeclared is in the result.
fn reports_declared(out: &Output, declared: &[(String, String)]) {
    assert_eq!(out.result.get("correct"), &Json::Bool(true));
    assert_eq!(out.result.get("failed").num(), 0.0);
    assert!(out.result.get("attempted").num() >= 1.0);
    let Json::Obj(metrics) = out.result.get("metrics") else {
        panic!("metrics is an object");
    };
    assert_eq!(
        metrics.len(),
        declared.len(),
        "exactly the declared metrics"
    );
    for (name, unit) in declared {
        let m = out.result.get("metrics").get(name);
        assert_eq!(m.get("unit").str(), unit, "{name}");
        assert!(m.get("value").num().is_finite(), "{name}");
        let printed = out.text.lines().any(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            words.len() >= 3 && words[0] == name && words[2] == unit
        });
        assert!(printed, "{name} is not printed with its unit {unit}");
    }
}

fn check(workload: &str) {
    let spec = spec();
    let names: Vec<&str> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert!(names.contains(&workload), "{workload} is declared");
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");

    let first = run(workload, 1, false);
    let again = run(workload, 1, false);
    let other = run(workload, 2, false);
    for out in [&first, &again, &other] {
        reports_declared(out, &end_to_end);
    }
    for name in DETERMINISTIC {
        assert_eq!(
            first.metric(name),
            again.metric(name),
            "{workload}: {name} repeats"
        );
    }
    assert_eq!(first.fingerprint(), again.fingerprint());
    assert_ne!(
        first.fingerprint(),
        other.fingerprint(),
        "the seed changes the inputs"
    );

    let traced = run(workload, 1, true);
    reports_declared(&traced, &per_layer);
    assert!(traced.metric("layers.attributed") >= 0.95);
    assert_eq!(traced.fingerprint(), first.fingerprint());
}

#[test]
fn churn() {
    check("churn");
}

#[test]
fn rack_outage() {
    check("rack-outage");
}

#[test]
fn routed_traffic() {
    check("routed-traffic");
}

#[test]
fn monitored_dist() {
    check("monitored-dist");
}
