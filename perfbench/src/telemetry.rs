//! Before-and-after deltas of the program's own metrics registry.
//!
//! The benchmark adds no instruments to the program: it reads the
//! Prometheus-style exposition of `marqsim_obs::metrics::global()` around
//! a measured region and differences the two readings.

use std::collections::BTreeMap;

/// One reading of every sample series, keyed by the series as exposed
/// (`name{labels}`).
#[derive(Debug, Clone, Default)]
pub struct Reading(BTreeMap<String, f64>);

impl Reading {
    /// Reads the process-global registry now.
    pub fn now() -> Reading {
        Reading::parse(&marqsim_obs::metrics::global().expose())
    }

    /// Parses an exposition text; comment lines and unparsable samples are
    /// skipped.
    pub fn parse(exposition: &str) -> Reading {
        let mut series = BTreeMap::new();
        for line in exposition.lines() {
            if line.starts_with('#') {
                continue;
            }
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    series.insert(key.to_string(), v);
                }
            }
        }
        Reading(series)
    }

    /// Series-wise `self − earlier`; a series absent earlier counts from 0.
    pub fn since(&self, earlier: &Reading) -> Reading {
        Reading(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    fn family(&self, name: &str) -> impl Iterator<Item = (&str, f64)> + '_ {
        let name = name.to_string();
        self.0.iter().filter_map(move |(key, &v)| {
            let (family, labels) = match key.find('{') {
                Some(i) => (&key[..i], &key[i..]),
                None => (key.as_str(), ""),
            };
            (family == name).then_some((labels, v))
        })
    }

    /// The sum of every label set of series `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.family(name).fold(0.0, |acc, (_, v)| acc + v)
    }

    /// Per-label-value values of series `name` for label `label`.
    pub fn by_label(&self, name: &str, label: &str) -> BTreeMap<String, f64> {
        let needle = format!("{label}=\"");
        let mut out = BTreeMap::new();
        for (labels, v) in self.family(name) {
            if let Some(start) = labels.find(&needle) {
                let rest = &labels[start + needle.len()..];
                if let Some(end) = rest.find('"') {
                    *out.entry(rest[..end].to_string()).or_insert(0.0) += v;
                }
            }
        }
        out
    }

    /// The `q`-quantile (`0 < q <= 1`) of histogram `name`, summed over its
    /// label sets, as the upper edge of the bucket holding the
    /// `ceil(q·count)`-th observation (the registry's own rule). `None`
    /// when the histogram recorded nothing.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        let mut cumulative: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for (labels, v) in self.family(&format!("{name}_bucket")) {
            let le = labels
                .split("le=\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())?;
            let edge = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>().ok()?
            };
            // Key by the edge's bit order (positive floats sort as bits).
            cumulative.entry(edge.to_bits()).or_insert((edge, 0.0)).1 += v;
        }
        let count = self.sum(&format!("{name}_count"));
        if count <= 0.0 {
            return None;
        }
        let rank = (q * count).ceil().max(1.0);
        cumulative
            .values()
            .find(|(_, cum)| *cum >= rank)
            .map(|(edge, _)| *edge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# TYPE marqsim_flow_solves_total counter
marqsim_flow_solves_total{backend=\"ssp\"} 2.0
# TYPE marqsim_pool_queue_wait_seconds histogram
marqsim_pool_queue_wait_seconds_bucket{le=\"0.001\"} 1.0
marqsim_pool_queue_wait_seconds_bucket{le=\"0.01\"} 2.0
marqsim_pool_queue_wait_seconds_bucket{le=\"+Inf\"} 2.0
marqsim_pool_queue_wait_seconds_sum 0.004
marqsim_pool_queue_wait_seconds_count 2.0
";

    const AFTER: &str = "\
# TYPE marqsim_flow_solves_total counter
marqsim_flow_solves_total{backend=\"network_simplex\"} 3.0
marqsim_flow_solves_total{backend=\"ssp\"} 5.0
# TYPE marqsim_pool_queue_wait_seconds histogram
marqsim_pool_queue_wait_seconds_bucket{le=\"0.001\"} 2.0
marqsim_pool_queue_wait_seconds_bucket{le=\"0.01\"} 5.0
marqsim_pool_queue_wait_seconds_bucket{le=\"+Inf\"} 12.0
marqsim_pool_queue_wait_seconds_sum 1.504
marqsim_pool_queue_wait_seconds_count 12.0
";

    #[test]
    fn deltas_sum_over_labels_and_count_new_series_from_zero() {
        let delta = Reading::parse(AFTER).since(&Reading::parse(BEFORE));
        assert_eq!(delta.sum("marqsim_flow_solves_total"), 6.0);
        let by_backend = delta.by_label("marqsim_flow_solves_total", "backend");
        assert_eq!(by_backend["ssp"], 3.0);
        assert_eq!(by_backend["network_simplex"], 3.0);
        assert_eq!(delta.sum("marqsim_absent_total"), 0.0);
    }

    #[test]
    fn histogram_quantiles_come_from_bucket_deltas() {
        let delta = Reading::parse(AFTER).since(&Reading::parse(BEFORE));
        // Delta buckets: 1 at <=1ms, 2 more at <=10ms, 7 in overflow; 10 total.
        assert_eq!(
            delta.histogram_quantile("marqsim_pool_queue_wait_seconds", 0.1),
            Some(0.001)
        );
        assert_eq!(
            delta.histogram_quantile("marqsim_pool_queue_wait_seconds", 0.3),
            Some(0.01)
        );
        assert_eq!(
            delta.histogram_quantile("marqsim_pool_queue_wait_seconds", 0.5),
            Some(f64::INFINITY)
        );
        let empty = Reading::parse(BEFORE).since(&Reading::parse(BEFORE));
        assert_eq!(
            empty.histogram_quantile("marqsim_pool_queue_wait_seconds", 0.5),
            None
        );
    }
}
