//! One CPU for everything that is timed.
//!
//! The box gives this benchmark two vCPUs whose placement on the host
//! changes every few minutes: in one state two threads finish a
//! `cali-query --threads 2` run 1.75x sooner than one and a wake-up of
//! the other vCPU is slow, in the other two threads are *slower* than
//! one (0.9x) and cross-vCPU wake-ups are quick. A closed-loop producer
//! and its daemon hand each batch over four such wake-ups, so the same
//! commit acknowledges a batch in 195 µs or in 400 µs depending on the
//! host. Single-threaded work on one vCPU does not see the difference.
//!
//! So a run confines itself — and, by inheritance, every program it
//! starts and every thread those start — to one CPU: a hand-over is then
//! a context switch on that CPU, which costs what the code costs. The
//! few measurements that are about running in parallel lift the
//! restriction for their duration and are reported as per-layer rows
//! without a bound.

use std::io;

/// Words of a CPU mask: 1024 CPUs, the kernel's default `CPU_SETSIZE`.
const WORDS: usize = 16;
type Mask = [u64; WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn set(mask: &Mask) -> io::Result<()> {
    // SAFETY: `mask` points to `size_of::<Mask>()` readable bytes, and
    // pid 0 names the calling thread.
    match unsafe { sched_setaffinity(0, size_of::<Mask>(), mask.as_ptr()) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// The CPUs this process was allowed at start, and the one of them the
/// timed work is confined to.
pub struct Cpus {
    allowed: Mask,
    one: Mask,
}

impl Cpus {
    /// Read the calling thread's allowed CPUs and confine it to the
    /// highest of them (CPU 0 takes most of a small guest's interrupts).
    /// Call before any thread or child is started: they inherit it.
    pub fn confine() -> io::Result<Cpus> {
        let mut allowed: Mask = [0; WORDS];
        // SAFETY: `allowed` is `size_of::<Mask>()` writable bytes, and
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size_of::<Mask>(), allowed.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let word = allowed
            .iter()
            .rposition(|&w| w != 0)
            .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
        let mut one: Mask = [0; WORDS];
        one[word] = 1 << (63 - allowed[word].leading_zeros());
        set(&one)?;
        Ok(Cpus { allowed, one })
    }

    /// Run `f` — a measurement of parallel execution — on all allowed
    /// CPUs, then return to the one.
    pub fn all<R>(&self, f: impl FnOnce() -> R) -> R {
        set(&self.allowed).expect("restoring the CPU affinity mask read at start");
        let out = f();
        set(&self.one).expect("confining to a CPU of the mask read at start");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allowed_now() -> u32 {
        let mut mask: Mask = [0; WORDS];
        // SAFETY: as in `Cpus::confine`.
        assert_eq!(
            unsafe { sched_getaffinity(0, size_of::<Mask>(), mask.as_mut_ptr()) },
            0
        );
        mask.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn confines_to_one_cpu_and_lifts_it_for_parallel_work() {
        // On a thread of its own: the mask is per thread, and the test
        // harness's other threads keep theirs.
        std::thread::spawn(|| {
            let before = allowed_now();
            let cpus = Cpus::confine().unwrap();
            assert_eq!(allowed_now(), 1);
            // Threads started while confined inherit the one CPU.
            assert_eq!(std::thread::spawn(allowed_now).join().unwrap(), 1);
            assert_eq!(cpus.all(allowed_now), before);
            assert_eq!(allowed_now(), 1);
        })
        .join()
        .unwrap();
    }
}
