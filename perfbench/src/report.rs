//! Metric names and units, statistics, and JSON in and out.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (tracing off), as named in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("cpu_1t_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_ratio", "ratio"),
];

/// Per-layer metrics (the traced run), as named in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Front end: one span per loader step, medians over set-up probes.
    ("pyfront.bridge.install_s", "s"),
    ("minipy.lexer.s", "s"),
    ("minipy.lexer.tokens", "count"),
    ("minipy.parser.s", "s"),
    ("pyfront.transform.s", "s"),
    ("pyfront.transform.functions", "count"),
    ("minipy.bytecode.compile.s", "s"),
    ("minipy.bytecode.compile.fallbacks", "count"),
    ("minipy.interp.module_s", "s"),
    ("apps.input.s", "s"),
    ("core.pool.cold_region_s", "s"),
    // Interpreter: `minipy::stats` deltas around traced solves.
    ("minipy.vm.ops", "count"),
    ("minipy.vm.ns_per_op_1t", "ns"),
    ("minipy.vm.ns_per_op", "ns"),
    ("minipy.vm.contention", "ratio"),
    ("minipy.vm.quicken.rewrites", "count"),
    ("minipy.vm.quicken.deopts", "count"),
    ("minipy.vm.ic.hit_ratio", "ratio"),
    ("minipy.vm.frames", "count"),
    ("minipy.vm.fallbacks", "count"),
    ("minipy.obj_lock.acquisitions", "count"),
    ("minipy.obj_lock.contended_ratio", "ratio"),
    ("minipy.gil.acquisitions", "count"),
    // Runtime: OMPT events aggregated per region, pool and depgraph counters.
    ("core.team.regions", "count"),
    ("core.pool.spawn", "count"),
    ("core.pool.reuse", "count"),
    ("core.pool.park", "count"),
    ("core.pool.spin_exit", "count"),
    ("core.worksharing.chunks", "count"),
    ("core.worksharing.imbalance", "ratio"),
    ("core.sync.barrier_wait_share", "ratio"),
    ("core.sync.lock_contended_ratio", "ratio"),
    ("core.tasks.created", "count"),
    ("core.tasks.stolen", "count"),
    ("core.tasks.drain_share", "ratio"),
    ("core.tasks.us_per_task", "us"),
    ("core.depgraph.edges", "count"),
    ("core.depgraph.deferred", "count"),
    ("core.depgraph.released", "count"),
    ("core.ompt.overhead", "ratio"),
    ("core.ompt.events", "count"),
    ("core.ompt.dropped", "count"),
    // Scaling and host: reported, not gated.
    ("scaling.wall_1t_s", "s"),
    ("scaling.speedup", "ratio"),
    ("scaling.efficiency", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.ctx_switches", "count"),
    ("host.yardstick_s", "s"),
    // Trace closure.
    ("trace.setup_s", "s"),
    ("trace.setup_gap", "ratio"),
    ("trace.setup_ratio", "ratio"),
    ("trace.solve_gap", "ratio"),
    ("trace.solve_sum_ratio", "ratio"),
];

/// Median of a non-empty sample (mean of the middle two for even sizes).
///
/// # Panics
///
/// Panics on an empty sample (a bug in the benchmark).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A finite number as JSON.
///
/// # Panics
///
/// Panics on NaN or infinity (a bug in the benchmark's arithmetic).
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The metrics object: every metric of `registry`, in order, with its unit.
///
/// # Panics
///
/// Panics if `values` lacks a registered metric or holds an unregistered
/// one (a bug in the benchmark).
pub fn metrics_json(registry: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    for name in values.keys() {
        assert!(
            registry.iter().any(|(n, _)| n == name),
            "metric {name} is not registered"
        );
    }
    let fields: Vec<String> = registry
        .iter()
        .map(|(name, unit)| {
            let v = values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(name),
                num(*v),
                string(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A parsed JSON value (enough of JSON for the self-test).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => self.word(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.b.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self.b.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".to_owned())
    }

    fn word(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.b.len() && !b",]} \t\r\n".contains(&self.b[self.i]) {
            self.i += 1;
        }
        let w = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        match w {
            "null" => Ok(Json::Null),
            "true" => Ok(Json::Bool(true)),
            "false" => Ok(Json::Bool(false)),
            _ => w
                .parse()
                .map(Json::Num)
                .map_err(|_| format!("bad token {w:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metrics_round_trip_through_the_parser() {
        let mut values = BTreeMap::new();
        for (name, _) in END_TO_END {
            values.insert(*name, 0.25);
        }
        let json = Json::parse(&metrics_json(END_TO_END, &values)).unwrap();
        let wall = json.get("wall_s").unwrap();
        assert_eq!(wall.get("value"), Some(&Json::Num(0.25)));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn registries_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
