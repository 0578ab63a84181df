//! The Bernoulli input encoder of training presentations: every step's
//! draws run as one `encode_compact` launch, ahead of the step loop, into a
//! [`SpikeTrains`] the engine then stages step by step.

use crate::sim::SpikeTrains;
use crate::streams::INPUT;
use gpu_device::{Device, Philox4x32};

/// Precomputes the Bernoulli input spike trains a training presentation
/// draws when the engine's step counter runs `base_step..base_step +
/// steps`: input `i` spikes at local step `s` iff `uniform(INPUT | i,
/// base_step + s) < rate·dt`, with `steps = round(duration_ms / dt_ms)`.
/// Presentations get disjoint step ranges, so every draw key is globally
/// unique, and [`crate::sim::WtaEngine::present`] at step counter
/// `base_step` stages exactly these trains.
///
/// Each step's draw is one `encode_compact` launch on `device`, so the
/// profile and trace count encoding on whichever thread draws the trains.
#[must_use]
pub fn training_trains(
    device: &Device,
    seed: u64,
    rates_hz: &[f64],
    dt_ms: f64,
    duration_ms: f64,
    base_step: u64,
) -> SpikeTrains {
    let philox = Philox4x32::new(seed);
    draw_trains(device, &philox, rates_hz, dt_ms, duration_ms, base_step)
}

/// [`training_trains`] over an existing Philox key: one [`encode_inputs`]
/// step per `dt_ms` of `duration_ms` from step counter `base_step`, one
/// `encode_compact` launch each. A rate faster than `1/dt` saturates at
/// one spike per step.
pub(crate) fn draw_trains(
    device: &Device,
    philox: &Philox4x32,
    rates_hz: &[f64],
    dt_ms: f64,
    duration_ms: f64,
    base_step: u64,
) -> SpikeTrains {
    let steps = (duration_ms / dt_ms).round() as usize;
    let p_spike: Vec<f64> = rates_hz
        .iter()
        .map(|&f| (f * dt_ms / 1000.0).clamp(0.0, 1.0))
        .collect();
    let n = rates_hz.len();
    let mut trains = SpikeTrains::new(n, dt_ms);
    trains.reserve(steps, 0);
    let mut active = vec![0u32; n];
    // Per input: its spike probability read, its word written and read
    // back in place.
    let bytes = (n * (8 + 4)) as u64;
    for step in (base_step..).take(steps) {
        let count = device.launch_inline("encode_compact", n * 2, bytes, || {
            encode_inputs(philox, step, &p_spike, &mut active)
        });
        trains.push_step(&active[..count]);
    }
    trains
}

/// Draws one step of Bernoulli input spikes: input `i` spikes iff
/// `uniform(INPUT | i, step) < p_spike[i]`. Writes the spiking indices,
/// ascending, to the front of `active` and returns their count.
///
/// Two passes over `active[..p_spike.len()]`: the draw pass fills it with
/// one Philox word per input through [`Philox4x32::fill_word0`], which
/// vectorizes across inputs; the compaction pass then compares each word
/// and appends in input order, in place, since it writes position `count`
/// only after reading word `i >= count`.
pub(crate) fn encode_inputs(
    philox: &Philox4x32,
    step: u64,
    p_spike: &[f64],
    active: &mut [u32],
) -> usize {
    let active = &mut active[..p_spike.len()];
    // `INPUT + i` is `INPUT | i` for every input index below 2^40.
    philox.fill_word0(INPUT, step, active);
    let mut count = 0;
    for (i, &p) in p_spike.iter().enumerate() {
        if Philox4x32::unit(active[i]) < p {
            active[count] = i as u32;
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_device::DeviceConfig;

    /// The one-pass definition the two-pass encoder replaces.
    fn encode_one_pass(philox: &Philox4x32, step: u64, p_spike: &[f64]) -> Vec<u32> {
        (0..p_spike.len() as u32)
            .filter(|&i| philox.uniform(INPUT | u64::from(i), step) < p_spike[i as usize])
            .collect()
    }

    #[test]
    fn encode_inputs_equals_the_one_pass_definition() {
        let philox = Philox4x32::new(2019);
        // Fractional, silent and saturated (p = 1 and above) rates.
        let mixed = |i: usize| [0.5, 0.0, 1.0, 0.011, 1.5][i % 5];
        for n in [1usize, 5, 784] {
            let mut active = vec![0u32; n];
            for p_spike in [vec![0.0; n], vec![1.0; n], (0..n).map(mixed).collect()] {
                for step in [0u64, 1, 999, (1 << 32) - 1, 1 << 32, 123_456_789_012] {
                    let count = encode_inputs(&philox, step, &p_spike, &mut active);
                    let want = encode_one_pass(&philox, step, &p_spike);
                    assert_eq!(
                        &active[..count],
                        &want[..],
                        "n={n} step={step} p={p_spike:?}"
                    );
                }
            }
        }
    }

    fn steps_of(trains: &SpikeTrains) -> Vec<Vec<u32>> {
        (0..trains.steps())
            .map(|s| trains.active(s).to_vec())
            .collect()
    }

    #[test]
    fn training_trains_is_a_pure_function_of_seed_and_step_origin() {
        let device = Device::new(DeviceConfig::serial());
        let rates = vec![400.0; 16];
        let a = training_trains(&device, 7, &rates, 0.5, 10.0, 300);
        let b = training_trains(&device, 7, &rates, 0.5, 10.0, 300);
        let c = training_trains(&device, 7, &rates, 0.5, 10.0, 0);
        assert_eq!(a.steps(), 20);
        assert_eq!(steps_of(&a), steps_of(&b));
        // A different step origin keys different draws.
        assert_ne!(steps_of(&a), steps_of(&c));
        assert!(a.total_spikes() > 0, "vacuous at these rates");
        // One `encode_compact` launch per drawn step, with the per-step
        // items and bytes of the kernel.
        let k = *device
            .profile()
            .get("encode_compact")
            .expect("encode launches profiled");
        assert_eq!(k.launches, 60);
        assert_eq!(k.threads, 60 * 16 * 2);
        assert_eq!(k.bytes_touched, 60 * 16 * 12);
    }

    #[test]
    fn training_trains_step_the_one_pass_definition() {
        let device = Device::new(DeviceConfig::serial());
        let philox = Philox4x32::new(2019);
        let rates: Vec<f64> = (0..50).map(|i| [0.0, 22.0, 150.0, 2500.0][i % 4]).collect();
        let p_spike: Vec<f64> = rates.iter().map(|&f| (f * 0.5 / 1000.0).min(1.0)).collect();
        let base = (1u64 << 32) - 3;
        let trains = training_trains(&device, 2019, &rates, 0.5, 3.0, base);
        assert_eq!(trains.steps(), 6);
        for (s, active) in steps_of(&trains).into_iter().enumerate() {
            let want = encode_one_pass(&philox, base + s as u64, &p_spike);
            assert_eq!(active, want, "step {s}");
        }
    }
}
