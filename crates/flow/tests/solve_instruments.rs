//! Exact deltas of the process-global `marqsim_flow_*` instruments.
//!
//! The counters are shared by every solve in the process, so this test
//! lives in its own integration-test binary: no sibling test can solve
//! between its before and after readings.

use marqsim_flow::{FlowNetwork, SolverKind};
use marqsim_obs::metrics;

#[test]
fn solves_fill_profiles_and_registry_instruments() {
    let registry = metrics::global();
    for kind in SolverKind::ALL {
        let backend: &[(&str, &str)] = &[("backend", kind.as_str())];
        let solves = registry.counter_with("marqsim_flow_solves_total", backend);
        let pivots = registry.counter_with("marqsim_flow_pivots_total", backend);
        let seconds = registry.histogram_with("marqsim_flow_solve_seconds", backend);
        let (solves_before, pivots_before, count_before) =
            (solves.get(), pivots.get(), seconds.count());

        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 2.0, 1.0);
        net.add_edge(1, 2, 2.0, 1.0);
        let (r, _) = net.solve(kind, 0, 2, 1.0, None).unwrap();
        assert!(r.profile.pivots >= 1, "{kind}: at least one iteration");
        assert!(r.profile.init_seconds >= 0.0, "{kind}");
        assert!(r.profile.optimize_seconds >= 0.0, "{kind}");

        assert_eq!(solves.get(), solves_before + 1, "{kind}");
        assert_eq!(pivots.get(), pivots_before + r.profile.pivots, "{kind}");
        assert_eq!(seconds.count(), count_before + 1, "{kind}");
    }

    // Errors land in the error counter, not the solve counter.
    let errors = registry.counter_with("marqsim_flow_solve_errors_total", &[("backend", "ssp")]);
    let errors_before = errors.get();
    let mut net = FlowNetwork::new(2);
    net.add_edge(0, 1, 1.0, 1.0);
    let _ = net.min_cost_flow(0, 1, 5.0).unwrap_err();
    assert_eq!(errors.get(), errors_before + 1);
}
