//! Jobs, tasks, and bags-of-tasks.

use atlarge_stats::dist::{LogNormal, Sample};
use rand::Rng;

/// Identifier of a job within a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// One schedulable task: a runtime on a number of CPU cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Execution time on a reference machine, in seconds.
    pub runtime: f64,
    /// Cores the task occupies while running.
    pub cpus: u32,
}

impl Task {
    /// Creates a task.
    ///
    /// # Panics
    ///
    /// Panics unless `runtime > 0` and `cpus > 0`.
    pub fn new(runtime: f64, cpus: u32) -> Self {
        assert!(runtime > 0.0 && runtime.is_finite(), "runtime must be > 0");
        assert!(cpus > 0, "tasks need at least one core");
        Task { runtime, cpus }
    }

    /// Core-seconds of work in this task.
    pub fn work(&self) -> f64 {
        self.runtime * self.cpus as f64
    }
}

/// A job: a set of independent tasks submitted together (a bag-of-tasks,
/// the dominant structure in the grid workloads of \[121\], \[124\]).
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// Submission time.
    pub submit: f64,
    /// Independent tasks.
    pub tasks: Vec<Task>,
}

impl Job {
    /// Creates a job.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or `submit` is negative.
    pub fn new(id: JobId, submit: f64, tasks: Vec<Task>) -> Self {
        assert!(!tasks.is_empty(), "jobs must contain at least one task");
        assert!(submit >= 0.0 && submit.is_finite(), "submit must be >= 0");
        Job { id, submit, tasks }
    }

    /// Total core-seconds of work.
    pub fn work(&self) -> f64 {
        self.tasks.iter().map(Task::work).sum()
    }

    /// Runtime of the longest task (the job's lower bound on makespan with
    /// unlimited resources).
    pub fn critical_runtime(&self) -> f64 {
        self.tasks.iter().map(|t| t.runtime).fold(0.0, f64::max)
    }

    /// Number of tasks.
    pub fn size(&self) -> usize {
        self.tasks.len()
    }

    /// Maximum cores any single task needs.
    pub fn max_cpus(&self) -> u32 {
        self.tasks.iter().map(|t| t.cpus).max().unwrap_or(0)
    }
}

/// Generator for bags-of-tasks with log-normal runtimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BagOfTasksGen {
    /// Mean number of tasks per bag.
    pub mean_tasks: f64,
    /// Mean task runtime in seconds.
    pub mean_runtime: f64,
    /// Coefficient of variation of task runtimes.
    pub runtime_cv: f64,
    /// Cores per task.
    pub cpus_per_task: u32,
}

impl BagOfTasksGen {
    /// Samples one bag submitted at `submit`.
    ///
    /// The bag size is geometric-like (1 + floor(Exp)); runtimes are
    /// log-normal, matching the heavy-tailed-but-not-power-law runtimes of
    /// grid traces.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, id: JobId, submit: f64) -> Job {
        let n = 1 + (-(1.0 - rng.gen::<f64>()).ln() * (self.mean_tasks - 1.0).max(0.0)) as usize;
        let dist = LogNormal::with_mean_cv(self.mean_runtime, self.runtime_cv);
        let tasks = (0..n)
            .map(|_| Task::new(dist.sample(rng).max(0.1), self.cpus_per_task))
            .collect();
        Job::new(id, submit, tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn work_adds_up() {
        let j = Job::new(JobId(1), 0.0, vec![Task::new(10.0, 2), Task::new(5.0, 4)]);
        assert_eq!(j.work(), 40.0);
        assert_eq!(j.critical_runtime(), 10.0);
        assert_eq!(j.size(), 2);
        assert_eq!(j.max_cpus(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_job_rejected() {
        Job::new(JobId(0), 0.0, vec![]);
    }

    #[test]
    fn bot_generator_mean_size() {
        let g = BagOfTasksGen {
            mean_tasks: 10.0,
            mean_runtime: 100.0,
            runtime_cv: 1.0,
            cpus_per_task: 1,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let sizes: Vec<usize> = (0..2000)
            .map(|i| g.sample(&mut rng, JobId(i), 0.0).size())
            .collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((mean - 10.0).abs() < 1.0, "mean bag size {mean}");
        assert!(sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn job_id_displays() {
        assert_eq!(JobId(3).to_string(), "job-3");
    }
}
