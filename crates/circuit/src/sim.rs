use crate::inverter::Inverter;
use crate::waveform::Waveform;

/// One stage of a simulated inverter chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// The inverter (device + supply + parasitics).
    pub inv: Inverter,
    /// Number of identical inverters ganged in parallel at this stage
    /// (multiplies both drive and capacitance). `1.0` for a plain stage,
    /// `4.0` models the FO-4 load bank.
    pub parallel: f64,
    /// Additional fixed capacitance on this stage's output node, fF.
    pub extra_load_ff: f64,
}

/// DC operating point of one inverter for a fixed gate voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcOperatingPoint {
    /// Settled output voltage, volts.
    pub vout: f64,
    /// Static current through the stack, mA.
    pub static_current_ma: f64,
    /// Static power drawn from this inverter's supply, µW.
    pub static_power_uw: f64,
}

/// Transient simulator for a chain of (possibly heterogeneous) inverters.
///
/// Each stage may sit on a different supply — exactly the situation at a
/// monolithic 3-D tier boundary. Integration is explicit midpoint (RK2)
/// with a fixed sub-picosecond step; the time constants involved are tens
/// of picoseconds, so the integration error is negligible next to the
/// model error.
///
/// # Examples
///
/// ```
/// use m3d_circuit::{ChainSim, Inverter, TechFlavor};
///
/// let sim = ChainSim::fo4(
///     Inverter::new(TechFlavor::Fast, 1.0),
///     Inverter::new(TechFlavor::Fast, 1.0),
/// );
/// let waves = sim.run(2.2, 1.0, 0.02);
/// assert_eq!(waves.len(), sim.stages().len());
/// ```
#[derive(Debug, Clone)]
pub struct ChainSim {
    stages: Vec<Stage>,
    /// Swing of the ideal stimulus driving stage 0, volts.
    pub stimulus_vdd: f64,
}

/// Integration timestep, ns (0.05 ps).
const DT_NS: f64 = 5e-5;
/// Output sampling stride (one stored sample per `SAMPLE_EVERY` steps).
const SAMPLE_EVERY: usize = 10;

impl ChainSim {
    /// Builds a chain from explicit stages; the ideal stimulus swings to
    /// `stimulus_vdd`.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    #[must_use]
    pub fn new(stages: Vec<Stage>, stimulus_vdd: f64) -> Self {
        assert!(!stages.is_empty(), "chain must have at least one stage");
        ChainSim {
            stages,
            stimulus_vdd,
        }
    }

    /// The canonical FO-4 arrangement: a shaping inverter (same flavor as
    /// the driver, to produce a realistic input slew), the driver under
    /// test, a bank of four parallel load inverters, and a final
    /// measurement stage terminating the loads.
    #[must_use]
    pub fn fo4(driver: Inverter, load: Inverter) -> Self {
        let shaping = Stage {
            inv: driver,
            parallel: 1.0,
            extra_load_ff: 0.0,
        };
        // 10 fF of boundary interconnect (local wire + MIV) on the driver
        // output: monolithic boundary nets are short but not ideal.
        let drv = Stage {
            inv: driver,
            parallel: 1.0,
            extra_load_ff: 10.0,
        };
        let loads = Stage {
            inv: load,
            parallel: 4.0,
            extra_load_ff: 0.0,
        };
        // Each load inverter itself sees an FO-4 load.
        let term = Stage {
            inv: load,
            parallel: 16.0,
            extra_load_ff: 0.0,
        };
        ChainSim::new(vec![shaping, drv, loads, term], driver.vdd)
    }

    /// The stages.
    #[must_use]
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Capacitance on the output node of stage `i`: its own drain
    /// parasitics, the next stage's gate, and any extra load.
    fn node_cap_ff(&self, i: usize) -> f64 {
        let own = self.stages[i].inv.cout_ff * self.stages[i].parallel;
        let next = self
            .stages
            .get(i + 1)
            .map_or(0.0, |s| s.inv.cin_ff * s.parallel);
        own + next + self.stages[i].extra_load_ff
    }

    /// Ideal trapezoidal stimulus: low until 0.1 ns, rises over `ramp_ns`,
    /// falls at `duration/2`, swings 0 ↔ `stimulus_vdd`.
    fn stimulus(&self, t_ns: f64, duration_ns: f64, ramp_ns: f64) -> f64 {
        let rise_at = 0.1;
        let fall_at = duration_ns * 0.5;
        let v = self.stimulus_vdd;
        if t_ns < rise_at {
            0.0
        } else if t_ns < rise_at + ramp_ns {
            v * (t_ns - rise_at) / ramp_ns
        } else if t_ns < fall_at {
            v
        } else if t_ns < fall_at + ramp_ns {
            v * (1.0 - (t_ns - fall_at) / ramp_ns)
        } else {
            0.0
        }
    }

    /// Runs a transient of `duration_ns` with the given stimulus period
    /// fraction (the stimulus always rises at 0.1 ns and falls at
    /// `duration/2`) and input ramp `ramp_ns`. `_period_scale` reserved.
    ///
    /// Returns one [`Waveform`] per stage output, sampled every 0.5 ps.
    #[must_use]
    pub fn run(&self, duration_ns: f64, _period_scale: f64, ramp_ns: f64) -> Vec<Waveform> {
        self.run_with_energy(duration_ns, ramp_ns).0
    }

    /// Like [`ChainSim::run`] but also returns the total energy drawn from
    /// all stage supplies over the window, in fJ.
    #[must_use]
    pub fn run_with_energy(&self, duration_ns: f64, ramp_ns: f64) -> (Vec<Waveform>, f64) {
        let (waves, per_stage) = self.run_with_stage_energy(duration_ns, ramp_ns);
        let total = per_stage.iter().sum();
        (waves, total)
    }

    /// Like [`ChainSim::run`] but returns the energy drawn from each
    /// stage's supply over the window, in fJ (one entry per stage).
    #[must_use]
    pub fn run_with_stage_energy(
        &self,
        duration_ns: f64,
        ramp_ns: f64,
    ) -> (Vec<Waveform>, Vec<f64>) {
        let n = self.stages.len();
        let steps = (duration_ns / DT_NS).ceil() as usize;
        // Initial condition: stimulus low -> alternating settled levels.
        let mut v: Vec<f64> = Vec::with_capacity(n);
        let mut gate_low = true; // stage 0 gate = stimulus = 0.
        for s in &self.stages {
            v.push(if gate_low { s.inv.vdd } else { 0.0 });
            gate_low = !gate_low;
        }
        let mut traces: Vec<Vec<f64>> = vec![Vec::with_capacity(steps / SAMPLE_EVERY + 1); n];
        let caps: Vec<f64> = (0..n).map(|i| self.node_cap_ff(i)).collect();
        let mut energy_fj = vec![0.0_f64; n];

        let derivative = |v: &[f64], vin: f64, out: &mut [f64]| {
            for i in 0..n {
                let vg = if i == 0 { vin } else { v[i - 1] };
                let i_ma = self.stages[i].inv.output_current_ma(vg, v[i]) * self.stages[i].parallel;
                // mA / fF = 1000 V/ns.
                out[i] = i_ma / caps[i] * 1000.0;
            }
        };

        let mut k1 = vec![0.0; n];
        let mut k2 = vec![0.0; n];
        let mut vmid = vec![0.0; n];
        for step in 0..steps {
            let t = step as f64 * DT_NS;
            let vin = self.stimulus(t, duration_ns, ramp_ns);
            let vin_mid = self.stimulus(t + 0.5 * DT_NS, duration_ns, ramp_ns);
            derivative(&v, vin, &mut k1);
            for i in 0..n {
                vmid[i] = v[i] + 0.5 * DT_NS * k1[i];
            }
            derivative(&vmid, vin_mid, &mut k2);
            for i in 0..n {
                v[i] += DT_NS * k2[i];
                // Clamp to physical rails with a little margin.
                v[i] = v[i].clamp(-0.05, self.stages[i].inv.vdd + 0.05);
            }
            // Supply energy: sum over stages of VDD * I_pmos * dt.
            for i in 0..n {
                let vg = if i == 0 { vin } else { v[i - 1] };
                let i_sup =
                    self.stages[i].inv.supply_current_ma(vg, v[i]) * self.stages[i].parallel;
                // mA * V * ns = pJ; * 1000 -> fJ.
                energy_fj[i] += i_sup * self.stages[i].inv.vdd * DT_NS * 1000.0;
            }
            if step % SAMPLE_EVERY == 0 {
                for i in 0..n {
                    traces[i].push(v[i]);
                }
            }
        }
        let dt_out = DT_NS * SAMPLE_EVERY as f64;
        (
            traces
                .into_iter()
                .map(|t| Waveform::new(dt_out, t))
                .collect(),
            energy_fj,
        )
    }

    /// DC operating point of stage `i` for a fixed gate voltage `vg`
    /// (bisection on the output node until the pull-up and pull-down
    /// currents balance).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn dc_operating_point(&self, i: usize, vg: f64) -> DcOperatingPoint {
        let inv = &self.stages[i].inv;
        let mut lo = 0.0;
        let mut hi = inv.vdd;
        // output_current(vout) is decreasing in vout near equilibrium:
        // high vout -> NMOS discharges dominate (negative), low vout ->
        // PMOS charges dominate (positive).
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if inv.output_current_ma(vg, mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let vout = 0.5 * (lo + hi);
        let static_current_ma = inv.supply_current_ma(vg, vout) * self.stages[i].parallel;
        DcOperatingPoint {
            vout,
            static_current_ma,
            static_power_uw: static_current_ma * inv.vdd * 1000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverter::{Inverter, TechFlavor};

    fn fast_fo4() -> ChainSim {
        ChainSim::fo4(
            Inverter::new(TechFlavor::Fast, 1.0),
            Inverter::new(TechFlavor::Fast, 1.0),
        )
    }

    #[test]
    fn chain_settles_to_alternating_rails() {
        let sim = fast_fo4();
        let waves = sim.run(2.0, 1.0, 0.02);
        // After the final falling stimulus edge the chain returns to the
        // initial alternating pattern.
        let vdd = 0.9;
        assert!((waves[0].final_voltage() - vdd).abs() < 0.05);
        assert!(waves[1].final_voltage() < 0.05);
        assert!((waves[2].final_voltage() - vdd).abs() < 0.05);
    }

    #[test]
    fn driver_output_switches_full_swing() {
        let sim = fast_fo4();
        let waves = sim.run(2.0, 1.0, 0.02);
        let drv = &waves[1];
        let max = drv.samples().iter().copied().fold(0.0_f64, f64::max);
        let min = drv.samples().iter().copied().fold(1.0_f64, f64::min);
        assert!(max > 0.85);
        assert!(min < 0.05);
    }

    #[test]
    fn fo4_delay_is_tens_of_picoseconds() {
        let sim = fast_fo4();
        let waves = sim.run(2.0, 1.0, 0.02);
        let d = waves[0]
            .delay_to(0.9, false, &waves[1], 0.9, true, 0.0)
            .expect("driver switches");
        assert!(d > 0.001 && d < 0.2, "FO4 delay {d} ns out of range");
    }

    #[test]
    fn dc_op_point_is_near_rail_for_strong_input() {
        let sim = fast_fo4();
        let high = sim.dc_operating_point(1, 0.9);
        assert!(high.vout < 0.02);
        let low = sim.dc_operating_point(1, 0.0);
        assert!(low.vout > 0.88);
        assert!(high.static_power_uw > 0.0);
    }

    #[test]
    fn underdriven_input_leaks_more_at_dc() {
        let sim = fast_fo4();
        let nominal = sim.dc_operating_point(1, 0.9);
        let underdriven = sim.dc_operating_point(1, 0.81);
        assert!(underdriven.static_power_uw > 2.0 * nominal.static_power_uw);
    }

    #[test]
    fn energy_is_positive_and_scales_with_activity() {
        let sim = fast_fo4();
        let (_, e) = sim.run_with_energy(2.0, 0.02);
        assert!(e > 0.0);
    }
}
