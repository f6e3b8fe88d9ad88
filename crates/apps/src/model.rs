//! The CleverLeaf workload model: where the numbers come from.
//!
//! The paper's case study (§VI) runs the triple-point shock interaction
//! problem on a 640×240 coarse mesh with three AMR levels on 18 MPI
//! ranks. We model the *observable structure* of that run — which is
//! what the paper's figures show — rather than the hydrodynamics:
//!
//! * a fixed set of computational kernels with per-cell costs where
//!   `calc-dt` dominates (Figure 5);
//! * per-level cell counts where level 0 is constant, level 1 grows
//!   slightly and level 2 grows significantly over the simulation as
//!   the shock develops vorticity (Figure 8);
//! * MPI time dominated by `MPI_Barrier`, then `MPI_Allreduce`, with
//!   comparatively small point-to-point time (Figure 6);
//! * mild per-rank imbalance with a few distinctive ranks — rank 8
//!   spends more time in level 1 than 0, rank 7 less in level 0 than
//!   others (Figure 9).
//!
//! All values are deterministic functions of (rank, level, timestep,
//! seed) so experiments are exactly reproducible.

/// Names of the computational kernels, with per-cell cost in
/// picoseconds (virtual). `calc-dt` dominates, as in Figure 5.
pub const KERNELS: &[(&str, u64)] = &[
    ("calc-dt", 1_740_000),
    ("advec-cell", 225_000),
    ("advec-mom", 204_000),
    ("pdv", 180_000),
    ("accelerate", 126_000),
    ("flux-calc", 120_000),
    ("viscosity", 144_000),
    ("ideal-gas", 93_000),
    ("reset", 66_000),
    ("update-halo", 60_000),
];

/// MPI functions used by the model with their base cost (ns) per call.
/// Barrier cost is dominated by imbalance waiting, computed separately.
pub const MPI_FUNCTIONS: &[(&str, u64)] = &[
    ("MPI_Barrier", 2_000),
    ("MPI_Allreduce", 14_000),
    ("MPI_Isend", 900),
    ("MPI_Irecv", 700),
    ("MPI_Waitall", 5_000),
    ("MPI_Reduce", 6_000),
    ("MPI_Bcast", 4_000),
    ("MPI_Allgather", 8_000),
    ("MPI_Gather", 3_500),
    ("MPI_Comm_dup", 1_200),
];

/// A small deterministic hash for model noise (splitmix64 step).
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Uniform value in [0, 1) from a hash of the inputs.
pub fn noise(seed: u64, parts: &[u64]) -> f64 {
    let mut h = seed;
    for &p in parts {
        h = mix(h ^ p);
    }
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The model parameters.
#[derive(Debug, Clone)]
pub struct CleverLeafParams {
    /// Number of main-loop timesteps.
    pub timesteps: usize,
    /// Number of MPI ranks.
    pub ranks: usize,
    /// Number of AMR levels (the paper uses 3: 0..=2).
    pub levels: usize,
    /// Coarse mesh size (the paper uses 640 × 240).
    pub coarse: (usize, usize),
    /// RNG seed for the deterministic noise.
    pub seed: u64,
}

impl Default for CleverLeafParams {
    fn default() -> CleverLeafParams {
        CleverLeafParams {
            timesteps: 100,
            ranks: 18,
            levels: 3,
            coarse: (640, 240),
            seed: 0xCAFE,
        }
    }
}

impl CleverLeafParams {
    /// The paper's case-study configuration (§VI-A): 18 ranks,
    /// 640×240, 3 levels.
    pub fn case_study() -> CleverLeafParams {
        CleverLeafParams::default()
    }

    /// The paper's overhead-study configuration (§V-B): 100 timesteps
    /// on 36 ranks.
    pub fn overhead_study() -> CleverLeafParams {
        CleverLeafParams {
            ranks: 36,
            ..CleverLeafParams::default()
        }
    }

    /// Total coarse cells per rank (block row decomposition).
    pub fn coarse_cells_per_rank(&self) -> f64 {
        (self.coarse.0 * self.coarse.1) as f64 / self.ranks as f64
    }

    /// Cells on `level` at `timestep`, per rank.
    ///
    /// Level 0 covers the whole domain and is constant. Refined levels
    /// cover the growing vorticity region: level 1 grows slightly,
    /// level 2 significantly (drives Figure 8's shape).
    pub fn cells(&self, level: usize, timestep: usize) -> f64 {
        let base = self.coarse_cells_per_rank();
        let progress = timestep as f64 / self.timesteps.max(1) as f64;
        match level {
            0 => base,
            1 => base * (0.35 + 0.25 * progress),
            _ => {
                // Each further level refines by 2x in each dimension
                // (4x cells) over a smaller, growing region.
                let growth = 0.15 + 1.30 * progress;
                base * growth * (0.8f64).powi(level as i32 - 2)
            }
        }
    }

    /// Number of mesh patches a rank owns on `level` at `timestep`.
    /// SAMRAI-style AMR codes invoke each kernel once per patch, which
    /// is what makes event-triggered snapshot counts large (the paper
    /// reports 219 382 snapshots per process for 100 timesteps).
    pub fn patches(&self, level: usize, timestep: usize) -> usize {
        const CELLS_PER_PATCH: f64 = 320.0;
        (self.cells(level, timestep) / CELLS_PER_PATCH)
            .ceil()
            .max(1.0) as usize
    }

    /// Per-rank, per-level compute-speed factor (>= ~0.85), modelling
    /// load imbalance. Encodes the distinctive ranks from Figure 9.
    pub fn imbalance(&self, rank: usize, level: usize) -> f64 {
        let jitter = 0.06 * (noise(self.seed, &[rank as u64, level as u64]) - 0.5);
        let mut factor = 1.0 + jitter;
        if rank == 8 && level == 1 {
            // Rank 8 spends more time in level 1 than in level 0
            // (Figure 9): level 1 has ~0.5x the cells of level 0, so
            // the factor must push the product above 1.
            factor += 1.35;
        }
        if rank == 7 && level == 0 {
            factor -= 0.18; // rank 7: less level-0 time than most ranks
        }
        factor.max(0.5)
    }

    /// Virtual nanoseconds of compute for one kernel invocation.
    pub fn kernel_time_ns(
        &self,
        kernel_cost_ps: u64,
        rank: usize,
        level: usize,
        timestep: usize,
    ) -> u64 {
        let cells = self.cells(level, timestep);
        let base = cells * kernel_cost_ps as f64 / 1000.0;
        let wiggle =
            1.0 + 0.02 * (noise(self.seed, &[rank as u64, level as u64, timestep as u64]) - 0.5);
        (base * self.imbalance(rank, level) * wiggle) as u64
    }

    /// Un-annotated compute time per timestep (regridding, SAMRAI
    /// overhead, I/O buffering, ...). Figure 5 shows most samples fall
    /// outside the annotated kernels, so this is sized to exceed the
    /// kernel total.
    pub fn unannotated_time_ns(&self, rank: usize, timestep: usize) -> u64 {
        let kernel_total: u64 = (0..self.levels)
            .map(|level| {
                KERNELS
                    .iter()
                    .map(|(_, cost)| self.kernel_time_ns(*cost, rank, level, timestep))
                    .sum::<u64>()
            })
            .sum();
        // ~1.4x the annotated kernel time.
        (kernel_total as f64 * 1.4) as u64
    }

    /// Total compute time (kernels + unannotated) for a rank/timestep —
    /// used to size barrier waits.
    pub fn compute_time_ns(&self, rank: usize, timestep: usize) -> u64 {
        let kernels: u64 = (0..self.levels)
            .map(|level| {
                KERNELS
                    .iter()
                    .map(|(_, cost)| self.kernel_time_ns(*cost, rank, level, timestep))
                    .sum::<u64>()
            })
            .sum();
        kernels + self.unannotated_time_ns(rank, timestep)
    }

    /// Barrier wait: the slowest rank's compute minus this rank's, plus
    /// a base synchronization cost. This makes MPI_Barrier the top MPI
    /// consumer (Figure 6) and ties MPI imbalance to compute imbalance
    /// (Figure 7).
    pub fn barrier_wait_ns(&self, rank: usize, timestep: usize) -> u64 {
        let mine = self.compute_time_ns(rank, timestep);
        let max = (0..self.ranks)
            .map(|r| self.compute_time_ns(r, timestep))
            .max()
            .unwrap_or(mine);
        (max - mine) + 2_000 + (self.ranks as f64).log2() as u64 * 500
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic_and_uniform() {
        let a = noise(1, &[2, 3]);
        let b = noise(1, &[2, 3]);
        assert_eq!(a, b);
        assert!((0.0..1.0).contains(&a));
        let mean: f64 = (0..1000).map(|i| noise(42, &[i])).sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn level0_is_constant_level2_grows() {
        let p = CleverLeafParams::default();
        assert_eq!(p.cells(0, 0), p.cells(0, 99));
        assert!(p.cells(2, 99) > 3.0 * p.cells(2, 0));
        // Level 1 grows, but only slightly.
        let growth1 = p.cells(1, 99) / p.cells(1, 0);
        let growth2 = p.cells(2, 99) / p.cells(2, 0);
        assert!(growth1 > 1.0 && growth1 < 2.5);
        assert!(growth2 > growth1);
    }

    #[test]
    fn calc_dt_dominates_kernels() {
        let p = CleverLeafParams::default();
        let times: Vec<(&str, u64)> = KERNELS
            .iter()
            .map(|(name, cost)| (*name, p.kernel_time_ns(*cost, 0, 0, 50)))
            .collect();
        let calc_dt = times.iter().find(|(n, _)| *n == "calc-dt").unwrap().1;
        for (name, t) in &times {
            if *name != "calc-dt" {
                assert!(calc_dt > 4 * t, "{name} too close to calc-dt");
            }
        }
    }

    #[test]
    fn unannotated_exceeds_kernels() {
        let p = CleverLeafParams::default();
        let kernels: u64 = (0..3)
            .map(|l| {
                KERNELS
                    .iter()
                    .map(|(_, c)| p.kernel_time_ns(*c, 3, l, 10))
                    .sum::<u64>()
            })
            .sum();
        assert!(p.unannotated_time_ns(3, 10) > kernels);
    }

    #[test]
    fn distinctive_ranks_stand_out() {
        let p = CleverLeafParams::case_study();
        // Rank 8 has markedly more level-1 weight than its neighbours.
        assert!(p.imbalance(8, 1) > 1.2);
        // Rank 7 has less level-0 weight.
        assert!(p.imbalance(7, 0) < 0.9);
        // Ordinary ranks sit near 1.
        for rank in [0, 1, 5, 12] {
            for level in 0..3 {
                let f = p.imbalance(rank, level);
                assert!((0.9..1.1).contains(&f), "rank {rank} level {level}: {f}");
            }
        }
    }

    #[test]
    fn barrier_wait_is_zero_for_slowest_rank() {
        let p = CleverLeafParams::case_study();
        let waits: Vec<u64> = (0..p.ranks).map(|r| p.barrier_wait_ns(r, 30)).collect();
        let min = *waits.iter().min().unwrap();
        // The slowest rank only pays the base cost.
        assert!(min < 10_000, "min wait {min}");
        // Faster ranks wait noticeably longer.
        assert!(*waits.iter().max().unwrap() > 10 * min.max(1));
    }
}
