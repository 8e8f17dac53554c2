//! `fleet_mega`: `run_cluster(ClusterConfig::mega(SnapshotLocality,
//! seed))`, ~1.2 M invocations on 1000 hosts over a 300 s simulated
//! horizon. Arrivals are open-loop in sim time; the host drives them as
//! one batch call. One op is one served invocation. Set-up generates the
//! seed's arrivals once, and every run must account for each of them as
//! served or shed.

use faasnap_cluster::{run_cluster, ClusterConfig, RoutePolicy};
use faasnap_obs::SelfProfile;

use super::{derive, Args, UnitResult, Workload};
use crate::report::Values;
use crate::span::Probe;

/// Set-up state: the fleet configuration and its arrival count.
pub struct FleetMega {
    cfg: ClusterConfig,
    arrivals: u64,
}

impl Workload for FleetMega {
    type Prep = ();

    fn setup(args: &Args, _: &SelfProfile, probe: &mut Probe) -> Result<(Self, Values), String> {
        let cfg = ClusterConfig::mega(RoutePolicy::SnapshotLocality, derive(args.seed, &[1]));
        let arrivals = probe.span("faasnap-cluster.arrival_gen", || {
            cfg.workload.generate(cfg.seed, cfg.horizon).len() as u64
        });
        if arrivals == 0 {
            return Err("the fleet generated no arrivals".into());
        }
        Ok((FleetMega { cfg, arrivals }, Values::default()))
    }

    fn prepare(&mut self, _pass: u64) -> Result<(), String> {
        Ok(())
    }

    fn unit(
        &mut self,
        _: &(),
        prof: &SelfProfile,
        probe: &mut Probe,
    ) -> Result<UnitResult, String> {
        self.cfg.selfprof = prof.clone();
        let m = probe.span("faasnap-cluster.run", || run_cluster(&self.cfg));
        self.cfg.selfprof = SelfProfile::disabled();
        let served = m.total_served();
        let shed = m.total_shed();
        let mut r = UnitResult {
            ops: served,
            ..UnitResult::default()
        };
        let accounted = probe.span("benchmark.check", || served + shed == self.arrivals);
        if !accounted {
            eprintln!(
                "fleet_mega: {served} served + {shed} shed for {} arrivals",
                self.arrivals
            );
            r.failed = served.max(1);
        }
        let mix = m.mode_mix();
        let v = &mut r.values;
        v.set("sim_latency_ms_p50", m.p(50.0));
        v.set("sim_latency_ms_p999", m.p(99.9));
        if served > 0 {
            v.set("sim_cold_frac", (mix[2] + mix[3]) as f64 / served as f64);
        }
        v.set("faasnap-cluster.sim_served.warm", mix[0] as f64);
        v.set("faasnap-cluster.sim_served.snapshot_hot", mix[1] as f64);
        v.set("faasnap-cluster.sim_served.snapshot_cold", mix[2] as f64);
        v.set("faasnap-cluster.sim_served.cold", mix[3] as f64);
        v.set("faasnap-cluster.sim_shed", shed as f64);
        if prof.is_enabled() {
            // The fleet runs on sim-core's engine, so its events are the
            // engine's too.
            let events = prof.counter("engine/delivered");
            v.set("faasnap-cluster.events", events as f64);
            v.set("sim-core.events", events as f64);
            v.set(
                "faasnap-cluster.router_lookups",
                prof.counter("router/lookups") as f64,
            );
            v.set(
                "faasnap-cluster.peak_pending",
                prof.counter("engine/peak_pending") as f64,
            );
            if let (Some(book), true) = (probe.book(), events > 0) {
                let ns = book.stat("faasnap-cluster.run").self_ns;
                v.set("faasnap-cluster.ns_per_event", ns as f64 / events as f64);
                v.set("sim-core.ns_per_event", ns as f64 / events as f64);
            }
        }
        Ok(r)
    }
}
