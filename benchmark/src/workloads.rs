//! The workloads and the metric names, units and bounds: the one table
//! `BENCHMARK.json`, the printed report and `--compare` all follow.

/// Which HTTP targets the serve phases request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// `SEARCH_POOL` distinct `/search` targets, cyclic: the response
    /// cache never hits, so embedding and ranking run on every request.
    Search,
    /// `HOT_POOL` distinct targets of every endpoint drawn Zipf(1.0):
    /// the set fits the response cache, so the engine is nearly idle.
    Hot,
}

/// One workload: a corpus and host condition for the build half, a
/// shard count and traffic mix for the serve half.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Share of synthesized files rendered as SQL dumps.
    pub sql_file_prob: f64,
    /// Build through a 2-replica pool of hosts injecting transient
    /// faults, instead of the clean host.
    pub faulty: bool,
    /// Shard-local engines behind the router.
    pub shards: usize,
    pub traffic: Traffic,
    /// Open-loop request rates, requests/s: 40 % and 75 % of what the
    /// load generator could send when the benchmark was defined,
    /// rounded down to two significant digits. Frozen; see the README.
    pub rate_mid: f64,
    pub rate_high: f64,
    /// Latency limit, µs: 5 × the p50 measured at `rate_mid` when the
    /// benchmark was defined. A slower response counts as an SLO miss.
    pub slo_us: f64,
}

pub const SEARCH_POOL: usize = 2048;
pub const HOT_POOL: usize = 256;
/// Transient fault rate per host operation (truncation at half of it).
pub const FAULT_RATE: f64 = 0.05;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "csv_search",
        sql_file_prob: 0.0,
        faulty: false,
        shards: 1,
        traffic: Traffic::Search,
        rate_mid: 2400.0,
        rate_high: 4500.0,
        slo_us: 2600.0,
    },
    Workload {
        name: "sql_hot",
        sql_file_prob: 1.0,
        faulty: false,
        shards: 1,
        traffic: Traffic::Hot,
        rate_mid: 4000.0,
        rate_high: 8000.0,
        slo_us: 1300.0,
    },
    Workload {
        name: "faulty_reload",
        sql_file_prob: 0.0,
        faulty: true,
        shards: 2,
        traffic: Traffic::Search,
        rate_mid: 1300.0,
        rate_high: 2500.0,
        slo_us: 3300.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median an end-to-end metric may worsen by;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("build_tables_per_s", "1/s", Higher, 0.25),
    e2e("build_peak_rss_mb", "MB", Lower, 0.15),
    e2e("store_bytes_per_input_byte", "ratio", Lower, 0.15),
    e2e("load_tables_per_s", "1/s", Higher, 0.25),
    e2e("boot_first_query_ms", "ms", Lower, 0.25),
    e2e("serve_rps", "1/s", Higher, 0.25),
    e2e("reload_ms", "ms", Lower, 0.25),
];

/// Layer by layer, in pipeline order. README.md says which end-to-end
/// metric each should move, and on which workload.
pub const PER_LAYER: &[MetricDef] = &[
    layer("synth.render_s", "s", Lower),
    layer("githost.index_s", "s", Lower),
    layer("githost.search_calls", "count", Lower),
    layer("githost.fetch_calls", "count", Lower),
    layer("githost.fetch_mb", "MB", Lower),
    layer("githost.host_s", "s", Lower),
    layer("githost.pool_failovers", "count", Lower),
    layer("githost.pool_hedges", "count", Lower),
    layer("githost.pool_hedges_won", "count", Higher),
    layer("githost.pool_breaker_opens", "count", Lower),
    layer("githost.backend_attempts_per_fetch", "ratio", Lower),
    layer("core.extract_s", "s", Lower),
    layer("core.retries", "count", Lower),
    layer("core.backoff_ms_scheduled", "ms", Lower),
    layer("core.parse_failed", "count", Lower),
    layer("core.assemble_s", "s", Lower),
    layer("core.serial_mb_per_s", "MB/s", Higher),
    layer("tablecsv.sniff_s", "s", Lower),
    layer("tablecsv.read_s", "s", Lower),
    layer("tablecsv.mb_per_s", "MB/s", Higher),
    layer("tablesql.read_s", "s", Lower),
    layer("tablesql.mb_per_s", "MB/s", Higher),
    layer("curate.filter_s", "s", Lower),
    layer("curate.filtered", "count", Lower),
    layer("curate.pii_s", "s", Lower),
    layer("curate.pii_columns", "count", Lower),
    layer("annotate.init_s", "s", Lower),
    layer("annotate.s", "s", Lower),
    layer("annotate.columns", "count", Lower),
    layer("annotate.cache_hit_ratio", "ratio", Higher),
    layer("annotate.miss_us", "us", Lower),
    layer("corpus.write_s", "s", Lower),
    layer("corpus.write_mb", "MB", Lower),
    layer("corpus.shards", "count", Lower),
    layer("corpus.load_colv1_s", "s", Lower),
    layer("corpus.load_jsonl_s", "s", Lower),
    layer("corpus.lazy_get_us", "us", Lower),
    layer("serve.index_build_s", "s", Lower),
    layer("serve.sidecar_mb", "MB", Lower),
    layer("serve.boot_ms", "ms", Lower),
    layer("serve.engine_search_us", "us", Lower),
    layer("serve.engine_complete_us", "us", Lower),
    layer("serve.engine_types_us", "us", Lower),
    layer("serve.engine_lookup_us", "us", Lower),
    layer("embed.query_us", "us", Lower),
    layer("serve.serialize_us", "us", Lower),
    layer("serve.http_overhead_us", "us", Lower),
    layer("serve.http_cached_us", "us", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.router_fanout_us", "us", Lower),
    layer("serve.open_p50_us", "us", Lower),
    layer("serve.p99_us", "us", Lower),
    layer("serve.p99_us_high", "us", Lower),
    layer("serve.reload_swap_drain_ms", "ms", Lower),
    layer("serve.reload_read_p99_us", "us", Lower),
    layer("loadgen.late_us_p99", "us", Lower),
    layer("loadgen.slo_miss_ratio", "ratio", Lower),
    layer("proc.cpu_user_s", "s", Lower),
    layer("proc.cpu_sys_s", "s", Lower),
    layer("proc.minor_faults", "count", Lower),
    layer("proc.setup_rss_mb", "MB", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
    }

    fn items(v: &Value) -> &[Value] {
        match v {
            Value::Seq(items) => items,
            other => panic!("expected a list, found {other:?}"),
        }
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::Float(f) => *f,
            Value::UInt(u) => *u as f64,
            Value::Int(i) => *i as f64,
            other => panic!("expected a number, found {other:?}"),
        }
    }

    /// `BENCHMARK.json` at the repository root and the tables here name
    /// the same workloads and metrics, with the same units and bounds.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let json = serde_json::parse_value(include_str!("../../BENCHMARK.json")).unwrap();
        let names: Vec<&str> = items(field(&json, "workloads"))
            .iter()
            .map(|w| field(w, "name").as_str().unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = items(field(&json, key));
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(field(j, "name").as_str(), Some(d.name));
                assert_eq!(field(j, "unit").as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(
                    field(j, "better").as_str(),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                if let Some(bound) = d.bound {
                    assert_eq!(number(field(j, "bound")), bound, "{}", d.name);
                }
            }
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(workload("csv_search").is_some() && workload("nope").is_none());
    }
}
