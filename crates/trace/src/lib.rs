//! # tango-trace
//!
//! The unified execution-trace layer of the TANGO middleware.
//!
//! Every component that measures anything — the Execution Engine timing
//! its operator cursors, the Cost Estimator timing calibration probes,
//! the benchmark harness timing whole queries — goes through this one
//! crate, so a microsecond means the same thing everywhere and the
//! adaptive feedback loop consumes exactly what the experiments report.
//!
//! Three pieces:
//!
//! * [`Stopwatch`] — a wire-aware interval timer. TANGO's experiments
//!   charge *wall time plus simulated wire time*; the stopwatch takes
//!   the wire counter's value at start and stop so both components are
//!   captured by construction.
//! * [`Collector`] / [`SpanSlot`] / [`OpSpan`] — per-operator span
//!   recording. The engine allocates one [`SpanSlot`] per plan operator
//!   (cheap atomics, written from inside the cursor hot path) and
//!   [`Collector::finish`] turns the slots into immutable [`OpSpan`]s
//!   with inclusive/exclusive times resolved.
//! * [`json`] — a tiny hand-rolled JSON writer and parser (the
//!   workspace is offline and carries no serde_json): the writer emits
//!   machine-readable trace reports from `EXPLAIN ANALYZE` and the
//!   benchmark binaries, the parser reads rule packs and those reports
//!   back.
//!
//! The engine always traces: every cursor it builds is handed its span.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which side of the wire an operator ran on. Mirrors the paper's
/// superscript convention (`...^M` middleware, `...^D` DBMS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanSite {
    /// Evaluated by a middleware cursor.
    Middleware,
    /// Evaluated inside the DBMS (generated SQL or a loader).
    Dbms,
}

impl SpanSite {
    /// Lower-case name used in JSON and rendered plans.
    pub fn name(self) -> &'static str {
        match self {
            SpanSite::Middleware => "middleware",
            SpanSite::Dbms => "dbms",
        }
    }
}

/// A wire-aware interval timer.
///
/// TANGO runs against a DBMS behind a *simulated* JDBC link whose
/// transfer delays are accounted in a monotonic counter rather than
/// slept. Real experiments would include those delays in wall time;
/// the stopwatch therefore adds the counter's delta to the measured
/// interval, making timed results independent of whether the wire is
/// simulated or real.
#[derive(Debug)]
pub struct Stopwatch {
    started: Instant,
    wire_before: Duration,
}

impl Stopwatch {
    /// Start timing. `wire_now` is the current total of the link's
    /// charged wire time (pass [`Duration::ZERO`] for wire-free code).
    pub fn start(wire_now: Duration) -> Stopwatch {
        Stopwatch { started: Instant::now(), wire_before: wire_now }
    }

    /// Elapsed wall time plus wire time charged since `start`.
    pub fn elapsed(&self, wire_now: Duration) -> Duration {
        self.started.elapsed() + wire_now.saturating_sub(self.wire_before)
    }

    /// [`Stopwatch::elapsed`] in microseconds, the unit of the cost model.
    pub fn elapsed_us(&self, wire_now: Duration) -> f64 {
        self.elapsed(wire_now).as_secs_f64() * 1e6
    }
}

/// Live measurement sink for one operator: a handful of atomics written
/// from the cursor hot path, plus identity fixed at creation.
#[derive(Debug)]
pub struct SpanSlot {
    /// Operator label, e.g. `TAGGR^M` or `TRANSFER^D`.
    pub name: String,
    /// Evaluation site.
    pub site: SpanSite,
    /// Span indices of this operator's inputs within the collector.
    pub children: Vec<usize>,
    ns: AtomicU64,
    rows: AtomicU64,
    bytes: AtomicU64,
    server_ns: AtomicU64,
    counters: std::sync::Mutex<Vec<(&'static str, u64)>>,
    events: std::sync::Mutex<Vec<SpanEvent>>,
    annotations: std::sync::Mutex<Vec<(&'static str, String)>>,
}

/// A discrete occurrence recorded against a span — a wire fault, a
/// retry, a mid-execution re-plan. Unlike counters (sampled once at
/// close), events are appended the moment they happen and keep their
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Event kind, e.g. `fault`, `retry`, `replan`.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

impl SpanSlot {
    /// Charge an interval of execution time to this operator.
    pub fn add_time(&self, d: Duration) {
        self.ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record a whole produced batch in one shot: `rows` tuples totalling
    /// `bytes` — two relaxed adds amortized over the batch.
    pub fn add_batch(&self, rows: u64, bytes: u64) {
        self.rows.fetch_add(rows, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Bytes produced so far (the running total of [`Self::add_batch`]).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Record DBMS server-side compute time observed by this operator
    /// (`TRANSFER^M` reads it from the statement's result cursor).
    pub fn add_server_time(&self, d: Duration) {
        self.server_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Attach operator-specific counters (spills, comparisons, SQL
    /// round-trips, ...), typically polled from the cursor at close.
    pub fn set_counters(&self, counters: Vec<(&'static str, u64)>) {
        if !counters.is_empty() {
            *self.counters.lock().unwrap_or_else(|e| e.into_inner()) = counters;
        }
    }

    /// Add `value` to the named counter, appending it if absent. Unlike
    /// [`SpanSlot::set_counters`] (which replaces the whole list when a
    /// cursor is polled at close), this merges — used by the engine to
    /// attach driver-level counters (e.g. `replans`) to a span whose
    /// cursor has already closed and reported its own.
    pub fn add_counter(&self, name: &'static str, value: u64) {
        let mut c = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        match c.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += value,
            None => c.push((name, value)),
        }
    }

    /// Has an event of the given kind been recorded on this span?
    pub fn has_event(&self, kind: &str) -> bool {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).iter().any(|e| e.kind == kind)
    }

    /// Append a discrete event (fault, retry, replan, ...) to this span.
    pub fn add_event(&self, kind: impl Into<String>, detail: impl Into<String>) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(SpanEvent { kind: kind.into(), detail: detail.into() });
    }

    /// Attach a qualitative key/value annotation to this span, e.g.
    /// `cache: hit`. Unlike counters (numeric, polled at close) an
    /// annotation describes a *state* the operator was in; rendered in
    /// `EXPLAIN ANALYZE` as `key value` and in JSON as an object field.
    pub fn add_annotation(&self, key: &'static str, value: impl Into<String>) {
        self.annotations.lock().unwrap_or_else(|e| e.into_inner()).push((key, value.into()));
    }
}

/// Accumulates [`SpanSlot`]s during an execution and resolves them into
/// [`OpSpan`]s. Spans are created in post-order of the executed plan, so
/// child indices always precede their parent.
#[derive(Debug, Default)]
pub struct Collector {
    slots: Vec<Arc<SpanSlot>>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Create the span for one operator. `children` are indices returned
    /// by earlier `span` calls. Returns the new span's index and its slot.
    pub fn span(
        &mut self,
        name: impl Into<String>,
        site: SpanSite,
        children: Vec<usize>,
    ) -> (usize, Arc<SpanSlot>) {
        let slot = Arc::new(SpanSlot {
            name: name.into(),
            site,
            children,
            ns: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            server_ns: AtomicU64::new(0),
            counters: std::sync::Mutex::new(Vec::new()),
            events: std::sync::Mutex::new(Vec::new()),
            annotations: std::sync::Mutex::new(Vec::new()),
        });
        self.slots.push(slot.clone());
        (self.slots.len() - 1, slot)
    }

    /// The live slot of a span created earlier in this execution.
    pub fn slot(&self, index: usize) -> &Arc<SpanSlot> {
        &self.slots[index]
    }

    /// Number of spans created so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no spans were created.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Freeze the collected slots into spans, computing each operator's
    /// exclusive time as its inclusive time minus its children's.
    pub fn finish(self) -> Vec<OpSpan> {
        let mut spans: Vec<OpSpan> = self
            .slots
            .iter()
            .map(|s| OpSpan {
                name: s.name.clone(),
                site: s.site,
                inclusive_us: s.ns.load(Ordering::Relaxed) as f64 / 1000.0,
                exclusive_us: 0.0,
                rows: s.rows.load(Ordering::Relaxed),
                bytes: s.bytes.load(Ordering::Relaxed),
                server_us: s.server_ns.load(Ordering::Relaxed) as f64 / 1000.0,
                counters: s.counters.lock().unwrap_or_else(|e| e.into_inner()).clone(),
                events: s.events.lock().unwrap_or_else(|e| e.into_inner()).clone(),
                annotations: s.annotations.lock().unwrap_or_else(|e| e.into_inner()).clone(),
                children: s.children.clone(),
            })
            .collect();
        for i in 0..spans.len() {
            let child_sum: f64 = spans[i].children.iter().map(|&c| spans[c].inclusive_us).sum();
            spans[i].exclusive_us = (spans[i].inclusive_us - child_sum).max(0.0);
        }
        spans
    }
}

/// One operator's resolved measurements.
#[derive(Debug, Clone)]
pub struct OpSpan {
    /// Operator label, e.g. `TAGGR^M`.
    pub name: String,
    /// Evaluation site.
    pub site: SpanSite,
    /// Wall + wire time including children, µs.
    pub inclusive_us: f64,
    /// Wall + wire time excluding children, µs.
    pub exclusive_us: f64,
    /// Tuples produced.
    pub rows: u64,
    /// Bytes produced.
    pub bytes: u64,
    /// DBMS server-side compute time within this span, µs.
    pub server_us: f64,
    /// Operator-specific counters (name, value).
    pub counters: Vec<(&'static str, u64)>,
    /// Discrete events recorded while the operator ran, in order.
    pub events: Vec<SpanEvent>,
    /// Qualitative key/value annotations (e.g. `cache: hit`), in order.
    pub annotations: Vec<(&'static str, String)>,
    /// Indices of input spans.
    pub children: Vec<usize>,
}

/// Serialize a list of span events as a JSON array of
/// `{"kind": ..., "detail": ...}` objects, in recording order.
pub fn events_to_json(events: &[SpanEvent]) -> String {
    let parts: Vec<String> = events
        .iter()
        .map(|e| {
            let mut o = json::Object::new();
            o.string("kind", &e.kind).string("detail", &e.detail);
            o.build()
        })
        .collect();
    format!("[{}]", parts.join(","))
}

/// The workspace's one JSON facility: minimal construction — just
/// enough for trace reports, with correct string escaping and
/// locale-independent number formatting — and a small strict parser
/// ([`json::parse`]) for rule packs and for reading back what the
/// writer emits.
pub mod json {
    /// Escape a string for use inside a JSON string literal.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
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
        out
    }

    /// Format a number the way JSON expects (no NaN/Inf, no trailing
    /// noise: integers stay integral, fractions keep two decimals).
    pub fn number(v: f64) -> String {
        if !v.is_finite() {
            return "null".to_string();
        }
        if v == v.trunc() && v.abs() < 9e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:.2}")
        }
    }

    /// An in-order JSON object builder.
    #[derive(Debug, Default)]
    pub struct Object {
        parts: Vec<String>,
    }

    impl Object {
        /// An empty object.
        pub fn new() -> Object {
            Object::default()
        }

        /// Add a string field.
        pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
            self.parts.push(format!("\"{}\":\"{}\"", escape(key), escape(value)));
            self
        }

        /// Add a numeric field.
        pub fn number(&mut self, key: &str, value: f64) -> &mut Self {
            self.parts.push(format!("\"{}\":{}", escape(key), number(value)));
            self
        }

        /// Add a pre-serialized JSON value.
        pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
            self.parts.push(format!("\"{}\":{}", escape(key), json));
            self
        }

        /// Serialize the object.
        pub fn build(&self) -> String {
            format!("{{{}}}", self.parts.join(","))
        }
    }

    /// A parsed JSON value; object keys keep document order (the
    /// rule-pack canonical formatter depends on it).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `{...}` — `(key, value)` pairs in document order.
        Obj(Vec<(String, Json)>),
        /// `[...]`
        Arr(Vec<Json>),
        /// A string literal, unescaped.
        Str(String),
        /// A number.
        Num(f64),
        /// `true` / `false`
        Bool(bool),
        /// `null`
        Null,
    }

    /// Parse one JSON document — strict (no trailing characters, no
    /// duplicate keys), errors carry `line L, col C`. Small and
    /// recursive-descent: the workspace is offline and carries no
    /// serde_json, so rule packs and the trace round-trip tests read
    /// JSON through this.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(p.fail("trailing characters after the top-level value"));
        }
        Ok(v)
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn fail(&self, msg: &str) -> String {
            let (mut line, mut col) = (1usize, 1usize);
            for &c in &self.b[..self.i.min(self.b.len())] {
                if c == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }
            format!("line {line}, col {col}: {msg}")
        }

        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(self.fail(&format!("expected '{}'", c as char)))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.keyword("true", Json::Bool(true)),
                Some(b'f') => self.keyword("false", Json::Bool(false)),
                Some(b'n') => self.keyword("null", Json::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(self.fail("expected a JSON value")),
            }
        }

        fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(self.fail(&format!("expected '{word}'")))
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.eat(b'{')?;
            let mut kv = Vec::new();
            self.ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(Json::Obj(kv));
            }
            loop {
                self.ws();
                let key = self.string()?;
                if kv.iter().any(|(k, _)| *k == key) {
                    return Err(self.fail(&format!("duplicate key \"{key}\"")));
                }
                self.ws();
                self.eat(b':')?;
                self.ws();
                let v = self.value()?;
                kv.push((key, v));
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Json::Obj(kv));
                    }
                    _ => return Err(self.fail("expected ',' or '}' in object")),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            self.ws();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.ws();
                items.push(self.value()?);
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.fail("expected ',' or ']' in array")),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.fail("unterminated string")),
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.i += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'u') => {
                                if self.i + 4 >= self.b.len() {
                                    return Err(self.fail("truncated \\u escape"));
                                }
                                let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                    .map_err(|_| self.fail("bad \\u escape"))?;
                                let n = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.fail("bad \\u escape"))?;
                                out.push(
                                    char::from_u32(n)
                                        .ok_or_else(|| self.fail("bad \\u code point"))?,
                                );
                                self.i += 4;
                            }
                            _ => return Err(self.fail("unknown escape")),
                        }
                        self.i += 1;
                    }
                    Some(_) => {
                        // consume one UTF-8 scalar
                        let rest = std::str::from_utf8(&self.b[self.i..])
                            .map_err(|_| self.fail("invalid UTF-8"))?;
                        let Some(c) = rest.chars().next() else {
                            return Err(self.fail("invalid UTF-8"));
                        };
                        out.push(c);
                        self.i += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.i;
            if self.peek() == Some(b'-') {
                self.i += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
            if self.peek() == Some(b'.') {
                self.i += 1;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            let text = std::str::from_utf8(&self.b[start..self.i]).unwrap_or("");
            text.parse::<f64>().map(Json::Num).map_err(|_| self.fail("bad number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_time_subtracts_children() {
        let mut c = Collector::new();
        let (leaf, s0) = c.span("SCAN", SpanSite::Dbms, vec![]);
        let (_, s1) = c.span("FILTER^M", SpanSite::Middleware, vec![leaf]);
        s0.add_time(Duration::from_micros(300));
        s1.add_time(Duration::from_micros(1000));
        s1.add_batch(2, 100);
        let spans = Collector::finish(c);
        assert_eq!(spans[1].rows, 2);
        assert_eq!(spans[1].bytes, 100);
        assert!((spans[1].inclusive_us - 1000.0).abs() < 1.0);
        assert!((spans[1].exclusive_us - 700.0).abs() < 1.0);
        assert!((spans[0].exclusive_us - 300.0).abs() < 1.0);
    }

    #[test]
    fn stopwatch_adds_wire_delta() {
        let sw = Stopwatch::start(Duration::from_millis(5));
        // pretend 7ms of wire were charged while we ran
        let t = sw.elapsed(Duration::from_millis(12));
        assert!(t >= Duration::from_millis(7));
    }

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json::number(4.0), "4");
        assert_eq!(json::number(4.5), "4.50");
        assert_eq!(json::number(f64::NAN), "null");
        let mut o = json::Object::new();
        o.string("op", "SORT^M").number("rows", 3.0);
        assert_eq!(o.build(), "{\"op\":\"SORT^M\",\"rows\":3}");
    }

    #[test]
    fn events_keep_order_and_serialize() {
        let mut c = Collector::new();
        let (_, s) = c.span("TRANSFER^M", SpanSite::Middleware, vec![]);
        s.add_event("fault", "ORA-03113 on round trip 4");
        s.add_event("retry", "attempt 2 after 2ms backoff");
        s.add_event("replan", "fragment re-planned in middleware");
        let spans = Collector::finish(c);
        assert_eq!(spans[0].events.len(), 3);
        assert_eq!(spans[0].events[0].kind, "fault");
        assert_eq!(spans[0].events[2].kind, "replan");
        let j = events_to_json(&spans[0].events);
        assert!(j.starts_with("[{\"kind\":\"fault\""), "{j}");
        assert!(j.contains("\"kind\":\"replan\""), "{j}");
    }
}
