//! Human-readable tables and the JSON files under `out/`.

use psm_obs::json::{escape, number, push_escaped};

use crate::metrics::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::protocol::{EndToEnd, Layers, Verdict};

/// `{"a":1,"b":2}` from name → already-JSON value pairs.
pub fn json_object<'a>(members: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(&mut out, k);
        out.push(':');
        out.push_str(&v);
    }
    out.push('}');
    out
}

/// Prints rows as an aligned table (first column left, rest right).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .enumerate()
            .map(|(i, (c, w))| {
                if i == 0 {
                    format!("{c:<w$}")
                } else {
                    format!("{c:>w$}")
                }
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("\n== {title} ==");
    println!(
        "{}",
        line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Prints the workloads with the reason each is in the set.
pub fn print_workloads() {
    println!("\n== workloads (size: cycles, or graph nodes for closure) ==");
    for w in &WORKLOADS {
        let (input, stack) = (w.input.name(), w.stack.name());
        println!(
            "{:<20} {input:<9} {stack:<9} {:>6}  {}",
            w.name, w.size, w.why
        );
    }
}

/// Four significant digits, plain notation.
pub fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return "0".to_string();
    }
    let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

/// End-to-end rows of one workload: the reported value with the
/// per-round median, quartiles and sample count beside it.
pub fn end_to_end_rows(w: &Workload, e: &EndToEnd, v: &Verdict) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = END_TO_END
        .iter()
        .zip(&e.values)
        .map(|(m, r)| {
            let name = if m.name == "cycle_p99_us" && e.tail < 0.99 {
                format!("{} (p{:.1})", m.name, e.tail * 100.0)
            } else {
                m.name.to_string()
            };
            vec![
                w.name.to_string(),
                name,
                sig(r.value),
                m.unit.to_string(),
                sig(r.rounds.median),
                format!("{}..{}", sig(r.rounds.q1), sig(r.rounds.q3)),
                r.rounds.n.to_string(),
                e.cycles.to_string(),
            ]
        })
        .collect();
    rows.push(vec![
        w.name.to_string(),
        "error_rate".to_string(),
        sig(v.failed as f64 / v.attempted.max(1) as f64),
        "share".to_string(),
        String::new(),
        format!("{} of {}", v.failed, v.attempted),
        String::new(),
        String::new(),
    ]);
    rows
}

/// Headers of [`end_to_end_rows`].
pub const END_TO_END_HEADERS: [&str; 8] = [
    "workload",
    "metric",
    "value",
    "unit",
    "round median",
    "round q1..q3",
    "rounds",
    "cycles",
];

/// Prints the per-layer table: one row per metric, one column per
/// workload, exact counters marked `=`.
pub fn print_layers(all: &[(&Workload, Layers)]) {
    let mut headers = vec!["metric", "unit"];
    headers.extend(all.iter().map(|(w, _)| w.name));
    let rows: Vec<Vec<String>> = PER_LAYER
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mut row = vec![m.name.to_string(), m.unit.to_string()];
            row.extend(all.iter().map(|(_, l)| {
                let v = l.values[i];
                format!("{}{}", if v.exact { "=" } else { "" }, sig(v.value))
            }));
            row
        })
        .collect();
    print_table(
        "per-layer metrics, traced pass (= exact counter)",
        &headers,
        &rows,
    );

    let mut headers = vec!["cycle time of the traced pass"];
    headers.extend(all.iter().map(|(w, _)| w.name));
    let parts = [
        "cycle wall ms",
        "  match ms",
        "  select ms",
        "  act ms",
        "  unattributed ms",
    ];
    let rows: Vec<Vec<String>> = parts
        .iter()
        .enumerate()
        .map(|(i, part)| {
            let mut row = vec![part.to_string()];
            row.extend(all.iter().map(|(_, l)| sig(l.cycle_split_ns[i] / 1e6)));
            row
        })
        .collect();
    print_table(
        "layer self times (the four parts sum to the wall)",
        &headers,
        &rows,
    );
}

/// `layers.json`: per workload the cycle-time split and every layer
/// metric with unit and exactness.
pub fn layers_json(all: &[(&Workload, Layers)]) -> String {
    let workloads = all.iter().map(|(w, l)| {
        let metrics = PER_LAYER.iter().zip(&l.values).map(|(m, v)| {
            let body = json_object([
                ("value", number(v.value)),
                ("unit", escape(m.unit)),
                ("better", escape(m.better.name())),
                ("exact", v.exact.to_string()),
            ]);
            (m.name, body)
        });
        let [wall, matched, select, act, rest] = l.cycle_split_ns.map(number);
        let body = json_object([
            ("cycle_wall_ns", wall),
            ("match_ns", matched),
            ("select_ns", select),
            ("act_ns", act),
            ("unattributed_ns", rest),
            ("metrics", json_object(metrics)),
        ]);
        (w.name, body)
    });
    json_object(workloads) + "\n"
}

/// `end_to_end.json`: per workload every end-to-end metric with its
/// per-round spread, and the verification verdict.
pub fn end_to_end_json(all: &[(&Workload, EndToEnd, Verdict)]) -> String {
    let workloads = all.iter().map(|(w, e, v)| {
        let metrics = END_TO_END.iter().zip(&e.values).map(|(m, r)| {
            let body = json_object([
                ("value", number(r.value)),
                ("unit", escape(m.unit)),
                ("better", escape(m.better.name())),
                ("bound", number(m.bound)),
                ("round_median", number(r.rounds.median)),
                ("round_q1", number(r.rounds.q1)),
                ("round_q3", number(r.rounds.q3)),
                ("rounds", r.rounds.n.to_string()),
            ]);
            (m.name, body)
        });
        let body = json_object([
            ("attempted", v.attempted.to_string()),
            ("failed", v.failed.to_string()),
            ("cycles", e.cycles.to_string()),
            ("metrics", json_object(metrics)),
        ]);
        (w.name, body)
    });
    json_object(workloads) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sig_keeps_four_digits() {
        assert_eq!(sig(54321.9), "54322");
        assert_eq!(sig(12.3456), "12.35");
        assert_eq!(sig(0.0012346), "0.001235");
        assert_eq!(sig(0.0), "0");
        assert_eq!(sig(-9.87654), "-9.877");
    }
}
