//! Joint `V_DD` / `V_T` selection at fixed throughput — the paper's §3.
//!
//! "Reducing the threshold voltage allows the supply voltage to be scaled
//! down (and therefore lower switching power) without loss in
//! performance. … at some point, the threshold voltage and supply
//! reduction is offset by an increase in the leakage currents, resulting
//! in an optimum threshold voltage and power supply voltage."
//!
//! The optimiser holds a delay constraint fixed (Fig. 3's iso-delay
//! locus), integrates leakage over the throughput period, and finds the
//! energy-minimising `(V_DD, V_T)` (Fig. 4). Two performance models can
//! supply the constraint:
//!
//! - the paper's **ring-oscillator proxy** ([`RingOscillator`]): hold
//!   one stage's delay at the target — the measurement structure the
//!   paper's figures are drawn from; or
//! - a circuit's own **critical path** ([`CriticalPathModel`]), as
//!   extracted by static timing analysis (`lowvolt-sta`): hold the worst
//!   register-to-register/output path at the target, price switching on
//!   the whole circuit's switched capacitance and leakage on its gate
//!   count. Because every gate delay under uniform pricing shares the
//!   same `k·V_DD/I_on(V_DD, V_T)` voltage factor, the worst path is
//!   operating-point invariant and lumps exactly into one
//!   alpha-power-law stage driving the path's total capacitance.

use crate::error::CoreError;
use lowvolt_circuit::ring::RingOscillator;
use lowvolt_device::delay::StageDelay;
use lowvolt_device::mosfet::Mosfet;
use lowvolt_device::on_current::AlphaPowerLaw;
use lowvolt_device::units::{Amps, Farads, Joules, Micrometers, Seconds, Volts};
use lowvolt_exec::{parallel_map_isolated, ExecPolicy, FaultPolicy, ItemStatus};

/// One evaluated operating point of the fixed-throughput sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyPoint {
    /// Threshold voltage.
    pub vt: Volts,
    /// Supply voltage meeting the delay target at this threshold.
    pub vdd: Volts,
    /// Switching energy per operation.
    pub switching: Joules,
    /// Leakage energy per operation period.
    pub leakage: Joules,
}

impl EnergyPoint {
    /// Total energy per operation.
    #[must_use]
    pub fn total(&self) -> Joules {
        self.switching + self.leakage
    }
}

/// Lumped performance model of one circuit's worst timing path, the
/// static-timing-analysis alternative to the ring proxy. The delay
/// constraint is a single alpha-power-law stage driving the critical
/// path's total capacitance; switching energy prices the whole circuit's
/// switched capacitance and leakage prices one off-device per gate.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathModel {
    path: StageDelay,
    switched_cap: Farads,
    /// Leakage template; its threshold is overridden per query.
    leak_template: Mosfet,
    gates: usize,
}

impl CriticalPathModel {
    /// Builds the model from a circuit's load summary: drive devices of
    /// `width`, total worst-path load `path_load`, whole-circuit switched
    /// capacitance `switched_cap`, and `gates` leaking devices.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a gateless circuit or
    /// non-positive switched capacitance, and [`CoreError::Device`] when
    /// the device layer rejects the path load or width.
    pub fn new(
        width: Micrometers,
        path_load: Farads,
        switched_cap: Farads,
        gates: usize,
    ) -> Result<CriticalPathModel, CoreError> {
        if gates == 0 {
            return Err(CoreError::InvalidParameter {
                name: "gates",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        if !switched_cap.0.is_finite() || switched_cap.0 <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "switched_cap",
                value: switched_cap.0,
                constraint: "must be positive and finite",
            });
        }
        let path = StageDelay::new(AlphaPowerLaw::with_width(width), path_load, 0.5)?;
        Ok(CriticalPathModel {
            path,
            switched_cap,
            leak_template: Mosfet::nmos_with_vt(Volts(0.4)).with_width(width),
            gates,
        })
    }

    /// Leaking device count.
    #[must_use]
    pub fn gates(&self) -> usize {
        self.gates
    }

    /// Whole-circuit switched capacitance.
    #[must_use]
    pub fn switched_cap(&self) -> Farads {
        self.switched_cap
    }

    /// Worst-path delay at an operating point (infinite when
    /// `V_DD <= V_T`).
    #[must_use]
    pub fn path_delay(&self, vdd: Volts, vt: Volts) -> Seconds {
        self.path.delay(vdd, vt)
    }

    /// Total idle leakage: one off-device per gate at threshold `vt`.
    #[must_use]
    pub fn leakage_current(&self, vdd: Volts, vt: Volts) -> Amps {
        let device = self.leak_template.clone().with_vt(vt);
        Amps(self.gates as f64 * device.off_current(vdd).0)
    }
}

/// Which performance model supplies the delay constraint and energy
/// terms.
#[derive(Debug, Clone, PartialEq)]
enum Model {
    Ring(RingOscillator),
    Path(CriticalPathModel),
}

/// Fixed-throughput `V_DD`/`V_T` optimiser over a ring-oscillator proxy
/// or an STA-derived critical-path model.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedThroughputOptimizer {
    model: Model,
    /// Per-stage delay target for the ring proxy; whole-path target for
    /// the critical-path model.
    target_delay: Seconds,
    v_max: Volts,
    /// Node activity scaling of the switching term (`α`); the ring's own
    /// oscillation corresponds to 1.
    activity: f64,
}

/// Highest supply the optimiser will consider (the paper's era norm).
pub const DEFAULT_V_MAX: Volts = Volts(3.3);

impl FixedThroughputOptimizer {
    /// Optimiser over the default paper-scale ring with a given stage
    /// delay target.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the target is not
    /// positive, or [`CoreError::Device`] if the paper-default ring
    /// constants are rejected (they never are as shipped).
    pub fn paper_ring(target_stage_delay: Seconds) -> Result<FixedThroughputOptimizer, CoreError> {
        FixedThroughputOptimizer::new(RingOscillator::paper_default()?, target_stage_delay, 1.0)
    }

    /// Fully-specified ring-proxy constructor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a non-positive delay
    /// target or activity outside `(0, +∞)`.
    pub fn new(
        ring: RingOscillator,
        target_stage_delay: Seconds,
        activity: f64,
    ) -> Result<FixedThroughputOptimizer, CoreError> {
        FixedThroughputOptimizer::build(Model::Ring(ring), target_stage_delay, activity)
    }

    /// Optimiser whose delay constraint is a circuit's own critical path
    /// instead of the ring proxy: `target_path_delay` constrains the
    /// whole worst path, and the energy terms come from the circuit's
    /// switched capacitance and gate count. Because the switching-to-
    /// leakage ratio is now the circuit's own, the optimal `(V_DD, V_T)`
    /// is per-circuit — the paper's "circuit which has very low
    /// switching activity will require a high-threshold voltage" made
    /// concrete per design.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a non-positive delay
    /// target or activity outside `(0, +∞)`.
    pub fn for_critical_path(
        model: CriticalPathModel,
        target_path_delay: Seconds,
        activity: f64,
    ) -> Result<FixedThroughputOptimizer, CoreError> {
        FixedThroughputOptimizer::build(Model::Path(model), target_path_delay, activity)
    }

    fn build(
        model: Model,
        target_delay: Seconds,
        activity: f64,
    ) -> Result<FixedThroughputOptimizer, CoreError> {
        if target_delay.0 <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "target_delay",
                value: target_delay.0,
                constraint: "must be positive",
            });
        }
        if activity <= 0.0 || !activity.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "activity",
                value: activity,
                constraint: "must be positive and finite",
            });
        }
        Ok(FixedThroughputOptimizer {
            model,
            target_delay,
            v_max: DEFAULT_V_MAX,
            activity,
        })
    }

    /// The delay target: per-stage for the ring proxy, whole-path for
    /// the critical-path model.
    #[must_use]
    pub fn target_delay(&self) -> Seconds {
        self.target_delay
    }

    /// Supply voltage meeting the delay target at a threshold — one point
    /// of Fig. 3.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Device`] if even `V_max` is too slow at this
    /// threshold.
    pub fn iso_delay_supply(&self, vt: Volts) -> Result<Volts, CoreError> {
        let vdd = match &self.model {
            Model::Ring(r) => r.supply_for_stage_delay(self.target_delay, vt, self.v_max)?,
            Model::Path(m) => m.path.supply_for_delay(self.target_delay, vt, self.v_max)?,
        };
        Ok(vdd)
    }

    /// Sweeps the iso-delay locus over thresholds (skipping infeasible
    /// ones) — the Fig. 3 curve.
    #[must_use]
    pub fn iso_delay_curve(&self, vts: &[Volts]) -> Vec<(Volts, Volts)> {
        vts.iter()
            .filter_map(|&vt| self.iso_delay_supply(vt).ok().map(|vdd| (vt, vdd)))
            .collect()
    }

    /// Evaluates one operating point at a given throughput period
    /// (`t_op` = 1/throughput; leakage integrates over it).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Device`] if the threshold is infeasible,
    /// [`CoreError::InvalidParameter`] for a non-positive or non-finite
    /// `t_op`, and [`CoreError::NonPhysicalEnergy`] if either energy term
    /// comes out NaN, infinite, or negative — the checked-numerics gate
    /// at the device/core boundary.
    pub fn evaluate(&self, vt: Volts, t_op: Seconds) -> Result<EnergyPoint, CoreError> {
        if !t_op.0.is_finite() || t_op.0 <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "t_op",
                value: t_op.0,
                constraint: "must be positive and finite",
            });
        }
        let vdd = self.iso_delay_supply(vt)?;
        let (cap, leak) = match &self.model {
            Model::Ring(r) => (
                r.stages() as f64 * r.stage_load().0,
                r.leakage_current(vdd, vt),
            ),
            Model::Path(m) => (m.switched_cap().0, m.leakage_current(vdd, vt)),
        };
        let switching = Joules(self.activity * cap * vdd.0 * vdd.0);
        let leakage = leak * vdd * t_op;
        for (what, v) in [
            ("switching energy", switching.0),
            ("leakage energy", leakage.0),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(CoreError::NonPhysicalEnergy { what, value: v });
            }
        }
        Ok(EnergyPoint {
            vt,
            vdd,
            switching,
            leakage,
        })
    }

    /// The Fig. 4 sweep: energy per operation along the iso-delay locus.
    #[must_use]
    pub fn energy_curve(&self, vts: &[Volts], t_op: Seconds) -> Vec<EnergyPoint> {
        vts.iter()
            .filter_map(|&vt| self.evaluate(vt, t_op).ok())
            .collect()
    }

    /// Finds the energy-minimising `(V_DD, V_T)` point: a coarse grid over
    /// `V_T ∈ [0, 0.8 V]` refined by golden-section search. Runs the grid
    /// serially; see [`FixedThroughputOptimizer::optimum_with`] for the
    /// parallel variant.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] if no threshold admits the delay
    /// target.
    pub fn optimum(&self, t_op: Seconds) -> Result<EnergyPoint, CoreError> {
        self.optimum_with(&ExecPolicy::serial(), t_op)
    }

    /// [`FixedThroughputOptimizer::optimum`] with the coarse grid fanned
    /// out over `policy`'s worker threads. Grid points are independent
    /// supply-solve + energy evaluations; results come back in grid
    /// order, so the argmin — and therefore the refined optimum — is
    /// identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] if no threshold admits the delay
    /// target, or [`CoreError::Worker`] if a grid worker panicked (the
    /// panic is isolated to its grid point, never propagated).
    pub fn optimum_with(
        &self,
        policy: &ExecPolicy,
        t_op: Seconds,
    ) -> Result<EnergyPoint, CoreError> {
        let grid: Vec<u32> = (0..=160).collect();
        let slots = parallel_map_isolated(
            policy,
            &FaultPolicy::default(),
            lowvolt_obs::noop(),
            &grid,
            |_, &i, _| {
                let vt = Volts(0.005 * f64::from(i));
                ItemStatus::Done(self.evaluate(vt, t_op).ok())
            },
        );
        let mut coarse: Vec<EnergyPoint> = Vec::with_capacity(slots.len());
        for slot in slots {
            if let Some(point) = slot.map_err(CoreError::from)? {
                coarse.push(point);
            }
        }
        let best = coarse
            .iter()
            .min_by(|a, b| a.total().0.total_cmp(&b.total().0))
            .copied()
            .ok_or(CoreError::Infeasible {
                what: "fixed-throughput vdd/vt optimum",
            })?;
        // Golden-section refinement around the coarse winner.
        let mut lo = (best.vt.0 - 0.005).max(0.0);
        let mut hi = best.vt.0 + 0.005;
        let phi = (5f64.sqrt() - 1.0) / 2.0;
        for _ in 0..60 {
            let x1 = hi - phi * (hi - lo);
            let x2 = lo + phi * (hi - lo);
            let e1 = self.evaluate(Volts(x1), t_op).map(|p| p.total().0);
            let e2 = self.evaluate(Volts(x2), t_op).map(|p| p.total().0);
            match (e1, e2) {
                (Ok(a), Ok(b)) => {
                    if a < b {
                        hi = x2;
                    } else {
                        lo = x1;
                    }
                }
                (Ok(_), Err(_)) => hi = x2,
                (Err(_), Ok(_)) => lo = x1,
                (Err(_), Err(_)) => break,
            }
        }
        self.evaluate(Volts(0.5 * (lo + hi)), t_op).or(Ok(best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimizer() -> FixedThroughputOptimizer {
        // A mid-speed target: the delay of the default ring at 1.5 V with
        // a 0.45 V threshold.
        let ring = RingOscillator::paper_default().unwrap();
        let target = ring.stage_delay(Volts(1.5), Volts(0.45));
        FixedThroughputOptimizer::new(ring, target, 1.0).expect("valid")
    }

    #[test]
    fn constructor_validates() {
        let ring = RingOscillator::paper_default().unwrap();
        assert!(FixedThroughputOptimizer::new(ring.clone(), Seconds(0.0), 1.0).is_err());
        assert!(FixedThroughputOptimizer::new(ring, Seconds(1e-9), -1.0).is_err());
    }

    #[test]
    fn fig3_iso_delay_curve_is_monotone() {
        let opt = optimizer();
        let vts: Vec<Volts> = (0..=9).map(|i| Volts(0.05 * f64::from(i))).collect();
        let curve = opt.iso_delay_curve(&vts);
        assert!(curve.len() >= 8);
        for pair in curve.windows(2) {
            assert!(pair[1].1 .0 > pair[0].1 .0, "vdd rises with vt");
        }
    }

    #[test]
    fn fig4_curve_is_u_shaped() {
        let opt = optimizer();
        let vts: Vec<Volts> = (1..=90).map(|i| Volts(0.005 * f64::from(i))).collect();
        let curve = opt.energy_curve(&vts, Seconds(1e-6));
        let totals: Vec<f64> = curve.iter().map(|p| p.total().0).collect();
        let min_idx = totals
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        // Interior minimum: energy falls then rises.
        assert!(
            min_idx > 0 && min_idx < totals.len() - 1,
            "min at {min_idx}"
        );
        assert!(totals[0] > totals[min_idx] * 1.05, "leakage wall at low vt");
        assert!(
            *totals.last().unwrap() > totals[min_idx] * 1.05,
            "switching wall at high vt"
        );
    }

    #[test]
    fn optimum_is_below_one_volt() {
        // The paper: "It is interesting to note that the optimum voltage
        // is significantly lower than 1 V!"
        let opt = optimizer();
        let best = opt.optimum(Seconds(1e-6)).expect("feasible");
        assert!(best.vdd.0 < 1.0, "vdd = {}", best.vdd);
        assert!(best.vt.0 > 0.02 && best.vt.0 < 0.5, "vt = {}", best.vt);
    }

    #[test]
    fn optimum_is_identical_for_any_thread_count() {
        // The grid fans out over the policy; the argmin and the refined
        // optimum must not depend on how many workers evaluated it.
        let opt = FixedThroughputOptimizer::paper_ring(Seconds::from_nanos(2.0)).unwrap();
        let t_op = Seconds(1e-6);
        let serial = opt.optimum_with(&ExecPolicy::serial(), t_op).unwrap();
        for threads in [2, 8] {
            let parallel = opt
                .optimum_with(&ExecPolicy::with_threads(threads), t_op)
                .unwrap();
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn optimum_beats_grid_neighbours() {
        let opt = optimizer();
        let t_op = Seconds(1e-6);
        let best = opt.optimum(t_op).unwrap();
        for dv in [-0.02, -0.01, 0.01, 0.02] {
            if let Ok(p) = opt.evaluate(Volts(best.vt.0 + dv), t_op) {
                assert!(
                    p.total().0 >= best.total().0 * (1.0 - 1e-9),
                    "neighbour at {dv:+} beats optimum"
                );
            }
        }
    }

    #[test]
    fn slower_throughput_raises_optimal_vt() {
        // More idle time per operation → leakage matters more → higher
        // optimal threshold (the paper's activity dependence).
        let opt = optimizer();
        let fast = opt.optimum(Seconds(1e-7)).unwrap();
        let slow = opt.optimum(Seconds(1e-4)).unwrap();
        assert!(
            slow.vt.0 > fast.vt.0 + 0.01,
            "slow {} vs fast {}",
            slow.vt,
            fast.vt
        );
    }

    #[test]
    fn lower_activity_raises_optimal_vt() {
        // "a circuit which has very low switching activity will require a
        // high-threshold voltage".
        let ring = RingOscillator::paper_default().unwrap();
        let target = ring.stage_delay(Volts(1.5), Volts(0.45));
        let busy = FixedThroughputOptimizer::new(ring.clone(), target, 1.0).unwrap();
        let quiet = FixedThroughputOptimizer::new(ring, target, 0.01).unwrap();
        let t_op = Seconds(1e-6);
        let b = busy.optimum(t_op).unwrap();
        let q = quiet.optimum(t_op).unwrap();
        assert!(q.vt.0 > b.vt.0, "quiet {} vs busy {}", q.vt, b.vt);
    }

    #[test]
    fn infeasible_target_reported() {
        let ring = RingOscillator::paper_default().unwrap();
        let opt = FixedThroughputOptimizer::new(ring, Seconds(1e-15), 1.0).unwrap();
        assert!(opt.iso_delay_supply(Volts(0.4)).is_err());
        assert!(matches!(
            opt.optimum(Seconds(1e-6)),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn critical_path_model_validates() {
        let w = Micrometers(2.0);
        assert!(CriticalPathModel::new(w, Farads(3e-13), Farads(1e-12), 0).is_err());
        assert!(CriticalPathModel::new(w, Farads(3e-13), Farads(0.0), 40).is_err());
        assert!(CriticalPathModel::new(w, Farads(0.0), Farads(1e-12), 40).is_err());
        assert!(CriticalPathModel::new(w, Farads(3e-13), Farads(1e-12), 40).is_ok());
    }

    #[test]
    fn path_model_iso_supply_meets_the_whole_path_target() {
        let unit = 20e-15;
        let model = CriticalPathModel::new(
            Micrometers(2.0),
            Farads(30.0 * unit),
            Farads(60.0 * unit),
            45,
        )
        .unwrap();
        let opt =
            FixedThroughputOptimizer::for_critical_path(model.clone(), Seconds(5e-9), 1.0).unwrap();
        let vdd = opt.iso_delay_supply(Volts(0.3)).unwrap();
        let d = model.path_delay(vdd, Volts(0.3));
        assert!((d.0 - 5e-9).abs() / 5e-9 < 1e-3, "path delay {}", d.0);
    }

    #[test]
    fn ring_equivalent_path_model_reproduces_the_ring_optimum() {
        // A "circuit" with exactly the ring proxy's shape — one unit load
        // on the constraint stage, 101 gates each switching 20 fF — must
        // land on the same optimum: the STA mode generalises the ring, it
        // does not replace its physics.
        let ring = RingOscillator::paper_default().unwrap();
        let target = ring.stage_delay(Volts(1.5), Volts(0.45));
        let model = CriticalPathModel::new(
            Micrometers(2.0),
            ring.stage_load(),
            Farads(ring.stages() as f64 * ring.stage_load().0),
            ring.stages(),
        )
        .unwrap();
        let ring_opt = FixedThroughputOptimizer::new(ring, target, 1.0).unwrap();
        let path_opt = FixedThroughputOptimizer::for_critical_path(model, target, 1.0).unwrap();
        let t_op = Seconds(1e-6);
        let a = ring_opt.optimum(t_op).unwrap();
        let b = path_opt.optimum(t_op).unwrap();
        assert!((a.vt.0 - b.vt.0).abs() < 1e-3, "{} vs {}", a.vt, b.vt);
        assert!((a.vdd.0 - b.vdd.0).abs() < 1e-3, "{} vs {}", a.vdd, b.vdd);
    }

    #[test]
    fn fanout_heavy_circuit_shifts_the_optimum_below_the_ring_proxy() {
        // Three units of load per gate instead of the ring's one: three
        // times the switching energy per leaking device, so switching
        // dominates more and the per-circuit optimum sits at a lower
        // threshold (and supply) than the ring proxy predicts.
        let ring = RingOscillator::paper_default().unwrap();
        let stage_target = ring.stage_delay(Volts(1.5), Volts(0.45));
        let unit = ring.stage_load().0;
        let (gates, depth) = (40usize, 12usize);
        let model = CriticalPathModel::new(
            Micrometers(2.0),
            Farads(depth as f64 * 3.0 * unit),
            Farads(gates as f64 * 3.0 * unit),
            gates,
        )
        .unwrap();
        // Same per-unit-load delay budget, so the iso-delay locus is the
        // ring's and any optimum shift is purely the energy ratio.
        let path_target = Seconds(stage_target.0 * depth as f64 * 3.0);
        let ring_opt = FixedThroughputOptimizer::new(ring, stage_target, 1.0).unwrap();
        let path_opt =
            FixedThroughputOptimizer::for_critical_path(model, path_target, 1.0).unwrap();
        let v_r = ring_opt.iso_delay_supply(Volts(0.3)).unwrap();
        let v_p = path_opt.iso_delay_supply(Volts(0.3)).unwrap();
        assert!((v_r.0 - v_p.0).abs() < 1e-3, "same locus: {v_r} vs {v_p}");
        let t_op = Seconds(1e-6);
        let r = ring_opt.optimum(t_op).unwrap();
        let c = path_opt.optimum(t_op).unwrap();
        assert!(c.vt.0 < r.vt.0 - 0.005, "circuit {} vs ring {}", c.vt, r.vt);
        assert!(c.vdd.0 < r.vdd.0, "circuit {} vs ring {}", c.vdd, r.vdd);
    }
}
