//! The metric catalogue and the one-line JSON result.

/// `(name, unit)` of every end-to-end metric, printed by the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("slots_per_s", "1/s"),
    ("plan_ms_p50", "ms"),
    ("plan_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("avg_completion_s", "s"),
    ("p95_completion_s", "s"),
    ("makespan_s", "s"),
    ("delivered_gbits", "Gb"),
    ("finished_frac", "ratio"),
];

/// `(name, unit)` of every per-layer metric, printed by the traced run.
/// A layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.engine.plan_ms_sum", "ms"),
    ("sim.loop_ms", "ms"),
    ("core.anneal.evals", "count"),
    ("core.anneal.evals_per_s", "1/s"),
    ("core.cache.outcome_hit_rate", "ratio"),
    ("core.cache.relay_hit_rate", "ratio"),
    ("core.cache.miss.cold", "count"),
    ("core.cache.miss.flush", "count"),
    ("core.circuits.build_ms", "ms"),
    ("core.circuits.shortest_path_calls", "count"),
    ("core.regen.build_us", "us"),
    ("graph.yen_us", "us"),
    ("optical.provision_us", "us"),
    ("optical.circuits_built", "count"),
    ("optical.wavelength_failures", "count"),
    ("optical.wavelength_fail_frac", "ratio"),
    ("core.rates.assign_ms", "ms"),
    ("core.rates.paths_examined", "count"),
    ("core.rates.delta_frac", "ratio"),
    ("update.plan_ms", "ms"),
    ("update.exec_us", "us"),
    ("update.ops", "count"),
    ("update.op_retries", "count"),
    ("update.op_aborts", "count"),
    ("chaos.faults_detected", "count"),
    ("chaos.crashes", "count"),
    ("chaos.fallback_slots", "count"),
    ("chaos.lost_gbits", "Gb"),
    ("te.build_mcf_ms", "ms"),
    ("solver.lp_ms", "ms"),
    ("sim.deadlines_met_frac", "ratio"),
    ("sim.unfinished_frac", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// True for a valid metric or workload name: starts with a letter or a
/// digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// The run's verdict and numbers.
#[derive(Debug, Default)]
pub struct Result {
    /// Every output check passed.
    pub correct: bool,
    /// Passes of the slot loop run.
    pub attempted: u64,
    /// Passes stopped by a plan error or a failed audit, or whose results
    /// differ from the first pass over the same instance.
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Result {
    /// The result line. Every metric of `catalogue` must be present and
    /// finite; a missing or non-finite one is an error, never a guess.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> std::result::Result<String, String> {
        let mut parts = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            if !valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Shortest round-trip form of a finite float, always valid JSON.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn every_name_uses_the_allowed_charset_once() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit.len() <= 16);
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate name");
    }

    #[test]
    fn name_rule_rejects_what_it_should() {
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "a\"b",
            "é",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "accepted {bad:?}");
        }
        for good in [
            "a",
            "9",
            "core.cache.miss.cold",
            "isp-tempus-deadline",
            &"a".repeat(64),
        ] {
            assert!(valid_name(good), "rejected {good:?}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        for w in Workload::ALL {
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn result_line_is_complete_or_an_error() {
        let cat: &[(&str, &str)] = &[("a_ms", "ms"), ("b", "count")];
        let mut r = Result {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("a_ms", 1.25), ("b", 7.0)],
        };
        assert_eq!(
            r.to_json(cat).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
        r.metrics[1].1 = f64::NAN;
        assert!(r.to_json(cat).is_err());
        r.metrics.pop();
        assert!(r.to_json(cat).is_err());
    }
}
