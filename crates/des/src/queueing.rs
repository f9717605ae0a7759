//! Analytic queueing results and a reference queue-station model.
//!
//! §5.1/C3 of the paper puts *calibration* at the heart of simulation-based
//! design-space exploration. We calibrate the kernel itself: this module
//! provides closed-form M/M/c results (Erlang C) and a reference M/M/c
//! station built on the kernel, and the test suite asserts the simulated
//! mean waiting time matches theory. Every domain simulator inherits that
//! confidence.

use crate::sim::{Ctx, Model, Simulation};
use atlarge_stats::dist::{Exponential, Sample};

/// Offered load `a = lambda / mu` of an M/M/c system.
fn offered_load(lambda: f64, mu: f64) -> f64 {
    lambda / mu
}

/// Erlang-C formula: probability an arriving job waits in an M/M/c queue.
///
/// Returns 1.0 when the system is unstable (`lambda >= c*mu`).
///
/// # Panics
///
/// Panics unless `c > 0` and the rates are positive.
pub(crate) fn erlang_c(c: usize, lambda: f64, mu: f64) -> f64 {
    assert!(c > 0, "at least one server");
    assert!(lambda > 0.0 && mu > 0.0, "rates must be positive");
    let a = offered_load(lambda, mu);
    let rho = a / c as f64;
    if rho >= 1.0 {
        return 1.0;
    }
    // Sum_{k=0}^{c-1} a^k/k! computed iteratively for stability.
    let mut term = 1.0;
    let mut sum = 1.0;
    for k in 1..c {
        term *= a / k as f64;
        sum += term;
    }
    let ac_fact = term * a / c as f64; // a^c / c!
    let top = ac_fact / (1.0 - rho);
    top / (sum + top)
}

/// Mean waiting time (in queue, excluding service) of an M/M/c system.
///
/// Returns infinity when unstable.
pub fn mmc_mean_wait(c: usize, lambda: f64, mu: f64) -> f64 {
    let rho = offered_load(lambda, mu) / c as f64;
    if rho >= 1.0 {
        return f64::INFINITY;
    }
    erlang_c(c, lambda, mu) / (c as f64 * mu - lambda)
}

/// Events of the reference queue station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum StationEvent {
    /// A new job arrives.
    Arrival,
    /// A server finishes the job it started at the carried time.
    Departure {
        /// Arrival time of the finishing job.
        arrived_at: f64,
    },
}

/// A reference M/M/c queue station on the DES kernel.
///
/// Jobs arrive Poisson(`lambda`), take Exp(`mu`) service, and `c` servers
/// drain a FIFO queue. The station records per-job waiting times.
#[derive(Debug)]
pub(crate) struct QueueStation {
    arrival: Exponential,
    service: Exponential,
    servers: usize,
    busy: usize,
    fifo: std::collections::VecDeque<f64>,
    waits: Vec<f64>,
    responses: Vec<f64>,
    max_jobs: usize,
    started: usize,
}

impl QueueStation {
    /// Creates a station that simulates `max_jobs` job completions.
    ///
    /// # Panics
    ///
    /// Panics unless rates are positive and `servers > 0`.
    pub fn new(lambda: f64, mu: f64, servers: usize, max_jobs: usize) -> Self {
        assert!(servers > 0, "at least one server");
        QueueStation {
            arrival: Exponential::new(lambda),
            service: Exponential::new(mu),
            servers,
            busy: 0,
            fifo: std::collections::VecDeque::new(),
            waits: Vec::new(),
            responses: Vec::new(),
            max_jobs,
            started: 0,
        }
    }

    /// Waiting times (queue only) of completed jobs.
    pub(crate) fn waits(&self) -> &[f64] {
        &self.waits
    }

    /// Response times (queue + service) of completed jobs.
    pub fn responses(&self) -> &[f64] {
        &self.responses
    }

    fn start_service(&mut self, arrived_at: f64, ctx: &mut Ctx<StationEvent>) {
        self.busy += 1;
        self.waits.push(ctx.now() - arrived_at);
        let s = self.service.sample(ctx.rng());
        ctx.schedule_in(s, StationEvent::Departure { arrived_at });
    }
}

impl Model for QueueStation {
    type Event = StationEvent;

    fn handle(&mut self, ev: StationEvent, ctx: &mut Ctx<StationEvent>) {
        match ev {
            StationEvent::Arrival => {
                if self.started < self.max_jobs {
                    self.started += 1;
                    let next = self.arrival.sample(ctx.rng());
                    ctx.schedule_in(next, StationEvent::Arrival);
                    if self.busy < self.servers {
                        self.start_service(ctx.now(), ctx);
                    } else {
                        self.fifo.push_back(ctx.now());
                    }
                }
            }
            StationEvent::Departure { arrived_at } => {
                self.busy -= 1;
                self.responses.push(ctx.now() - arrived_at);
                if let Some(waiting_since) = self.fifo.pop_front() {
                    self.start_service(waiting_since, ctx);
                }
            }
        }
    }
}

/// Runs the reference station and returns `(mean_wait, mean_response)`.
pub fn simulate_mmc(lambda: f64, mu: f64, servers: usize, jobs: usize, seed: u64) -> (f64, f64) {
    let mut sim = Simulation::new(QueueStation::new(lambda, mu, servers, jobs), seed);
    sim.schedule(0.0, StationEvent::Arrival);
    sim.run();
    let m = sim.model();
    let mean = |v: &[f64]| {
        let mut total = 0.0;
        for x in v {
            total += x;
        }
        total / v.len().max(1) as f64
    };
    (mean(m.waits()), mean(m.responses()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean response time (wait + service) of an M/M/1 system.
    ///
    /// Returns infinity when unstable.
    fn mm1_mean_response(lambda: f64, mu: f64) -> f64 {
        if lambda >= mu {
            return f64::INFINITY;
        }
        1.0 / (mu - lambda)
    }

    #[test]
    fn erlang_c_single_server_is_rho() {
        // For M/M/1, P(wait) = rho.
        let p = erlang_c(1, 0.7, 1.0);
        assert!((p - 0.7).abs() < 1e-12);
    }

    #[test]
    fn erlang_c_unstable_is_one() {
        assert_eq!(erlang_c(2, 5.0, 1.0), 1.0);
        assert_eq!(mmc_mean_wait(1, 2.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn more_servers_less_waiting() {
        let w2 = mmc_mean_wait(2, 1.5, 1.0);
        let w3 = mmc_mean_wait(3, 1.5, 1.0);
        let w4 = mmc_mean_wait(4, 1.5, 1.0);
        assert!(w2 > w3 && w3 > w4);
    }

    #[test]
    fn simulated_mm1_matches_theory() {
        // rho = 0.5: mean response = 1/(mu - lambda) = 2.0.
        let (_, resp) = simulate_mmc(0.5, 1.0, 1, 60_000, 7);
        let theory = mm1_mean_response(0.5, 1.0);
        assert!(
            (resp - theory).abs() / theory < 0.06,
            "sim {resp} vs theory {theory}"
        );
    }

    #[test]
    fn simulated_mmc_wait_matches_erlang_c() {
        // M/M/3 at rho = 0.8.
        let (wait, _) = simulate_mmc(2.4, 1.0, 3, 80_000, 11);
        let theory = mmc_mean_wait(3, 2.4, 1.0);
        assert!(
            (wait - theory).abs() / theory < 0.12,
            "sim {wait} vs theory {theory}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = simulate_mmc(0.9, 1.0, 1, 5_000, 3);
        let b = simulate_mmc(0.9, 1.0, 1, 5_000, 3);
        assert_eq!(a, b);
    }
}
