//! The stdout/stderr protocol between `perfbench` and `run.py`.

use std::fmt::Write as _;
use std::time::Instant;

use pbbf_experiments::Output;

/// A flat JSON object built field by field. Keys and string values are
/// identifiers chosen by this program, so no escaping is needed.
#[derive(Default)]
pub struct Json {
    body: String,
}

impl Json {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{key}\":");
    }

    /// Adds a number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value:e}");
        } else {
            self.body.push_str("null");
        }
    }

    /// Adds a whole number.
    pub fn int(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.body, "{value}");
    }

    /// Adds an already-rendered JSON value.
    pub fn raw(&mut self, key: &str, json: &str) {
        self.key(key);
        self.body.push_str(json);
    }

    /// Adds a list of numbers.
    pub fn nums(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|v| format!("{v:e}")).collect();
        self.raw(key, &format!("[{}]", items.join(",")));
    }

    /// The finished object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// One exhibit written to stdout.
struct Exhibit {
    id: &'static str,
    seed: u64,
    group: &'static str,
    bytes: usize,
    run_s: f64,
    render_s: f64,
}

/// The exhibits a process printed, in print order.
#[derive(Default)]
pub struct Exhibits {
    list: Vec<Exhibit>,
}

impl Exhibits {
    /// Renders `out` with `Output::render_text` (timed) and prints it the
    /// way `pbbf reproduce` does: `println!` of the rendered text.
    pub fn emit(
        &mut self,
        id: &'static str,
        seed: u64,
        group: &'static str,
        run_s: f64,
        out: &Output,
    ) {
        let t = Instant::now();
        let text = out.render_text();
        let render_s = t.elapsed().as_secs_f64();
        println!("{text}");
        self.list.push(Exhibit {
            id,
            seed,
            group,
            bytes: text.len() + 1,
            run_s,
            render_s,
        });
    }

    /// The exhibit list as a JSON array.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .list
            .iter()
            .map(|e| {
                let mut j = Json::default();
                j.raw("id", &format!("\"{}\"", e.id));
                j.int("seed", e.seed);
                j.raw("group", &format!("\"{}\"", e.group));
                j.int("bytes", e.bytes as u64);
                j.num("run_s", e.run_s);
                j.num("render_s", e.render_s);
                j.finish()
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}
