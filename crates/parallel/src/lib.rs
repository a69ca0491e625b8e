//! Deterministic data-parallel execution.
//!
//! Every parallel stage in this workspace (the simulator's per-rack and
//! per-DC ticket generation, the conformance runner's per-seed sweep, the
//! fan-out inside the paper experiments) follows the same recipe:
//!
//! 1. each work item is *independent* and carries its own derived RNG
//!    seed (see [`derive_seed`]), so no item observes another item's
//!    random stream;
//! 2. results are merged back **in item-index order**, never in thread
//!    completion order.
//!
//! Together these make the output of [`par_map`] and [`join`] a pure
//! function of the input — bit-identical for `Sequential`, `Threads(n)`
//! for any `n`, and `Auto`. Thread count only changes wall-clock time.
//! A panic on a worker thread resumes on the caller with its original
//! payload.
//!
//! The layer is built on `std::thread::scope` rather than an external
//! thread-pool crate because the build environment is offline; the
//! contiguous-chunk split below is the same static partitioning a
//! rayon `par_iter().with_min_len(...)` would settle into for uniform
//! workloads.

/// How a parallelizable stage should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Run on the calling thread, one item at a time.
    Sequential,
    /// Use exactly this many worker threads (clamped to ≥ 1).
    Threads(usize),
    /// Use one worker per available CPU core.
    #[default]
    Auto,
}

impl Parallelism {
    /// Resolves to a concrete worker count (always ≥ 1).
    pub fn resolve_threads(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => {
                std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
            }
        }
    }

    /// Parses a `--threads` style argument: `0`/`auto` mean [`Auto`],
    /// `1` means [`Sequential`], anything else is [`Threads`].
    ///
    /// [`Auto`]: Parallelism::Auto
    /// [`Sequential`]: Parallelism::Sequential
    /// [`Threads`]: Parallelism::Threads
    pub fn from_flag(value: &str) -> Result<Self, String> {
        if value.eq_ignore_ascii_case("auto") {
            return Ok(Parallelism::Auto);
        }
        match value.parse::<usize>() {
            Ok(0) => Ok(Parallelism::Auto),
            Ok(1) => Ok(Parallelism::Sequential),
            Ok(n) => Ok(Parallelism::Threads(n)),
            Err(_) => Err(format!("invalid thread count `{value}` (expected a number or `auto`)")),
        }
    }
}

/// Derives an independent RNG seed for work item `index` of a stage.
///
/// The mix is SplitMix64's finalizer over the stage seed combined with
/// the item index, so per-item streams are decorrelated even for
/// adjacent indices and small seeds. Stages that need several distinct
/// streams per item (e.g. a simulator's hardware vs. burst phases) call
/// this with distinct `stream` tags.
pub fn derive_seed(stage_seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = stage_seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `f` over `0..len`, producing results in index order.
///
/// `f` must be a pure function of its index (plus captured immutable
/// state): the contract that makes thread count invisible in the
/// output. With one thread (or short inputs) this runs inline on the
/// caller's thread with no spawn overhead.
pub fn par_map_range<T, F>(parallelism: Parallelism, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = parallelism.resolve_threads().min(len.max(1));
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }

    // Static contiguous chunks: chunk boundaries depend only on
    // (len, threads), and the final concat is in chunk order, so the
    // output order is deterministic regardless of scheduling.
    let base = len / threads;
    let extra = len % threads;
    let mut bounds = Vec::with_capacity(threads + 1);
    let mut at = 0;
    bounds.push(0);
    for worker in 0..threads {
        at += base + usize::from(worker < extra);
        bounds.push(at);
    }

    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0], w[1]);
                scope.spawn(move || (lo..hi).map(f).collect::<Vec<T>>())
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        for handle in handles {
            out.extend(handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        out
    })
}

/// Maps `f` over a slice, producing results in input order.
pub fn par_map<'a, I, T, F>(parallelism: Parallelism, items: &'a [I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&'a I) -> T + Sync,
{
    par_map_range(parallelism, items.len(), |i| f(&items[i]))
}

/// Runs `a` and `b` and returns both results, in argument order.
///
/// When `parallelism` resolves to more than one thread, `b` runs on a
/// scoped worker while `a` runs on the caller; otherwise both run inline,
/// `a` first. Either way the results are the same, so `a` and `b` must be
/// independent of each other.
pub fn join<A, B, RA, RB>(parallelism: Parallelism, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if parallelism.resolve_threads() <= 1 {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|scope| {
        let worker = scope.spawn(b);
        let ra = a();
        let rb = worker.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_is_positive() {
        assert_eq!(Parallelism::Sequential.resolve_threads(), 1);
        assert_eq!(Parallelism::Threads(0).resolve_threads(), 1);
        assert_eq!(Parallelism::Threads(6).resolve_threads(), 6);
        assert!(Parallelism::Auto.resolve_threads() >= 1);
    }

    #[test]
    fn from_flag_parses() {
        assert_eq!(Parallelism::from_flag("auto").unwrap(), Parallelism::Auto);
        assert_eq!(Parallelism::from_flag("0").unwrap(), Parallelism::Auto);
        assert_eq!(Parallelism::from_flag("1").unwrap(), Parallelism::Sequential);
        assert_eq!(Parallelism::from_flag("8").unwrap(), Parallelism::Threads(8));
        assert!(Parallelism::from_flag("eight").is_err());
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for par in [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Threads(13),
            Parallelism::Threads(1000),
            Parallelism::Auto,
        ] {
            assert_eq!(par_map(par, &items, |x| x * 3 + 1), expected, "{par:?}");
        }
    }

    #[test]
    fn par_map_range_handles_degenerate_sizes() {
        assert!(par_map_range(Parallelism::Threads(4), 0, |i| i).is_empty());
        assert_eq!(par_map_range(Parallelism::Threads(4), 1, |i| i), vec![0]);
    }

    #[test]
    fn join_returns_results_in_argument_order() {
        for par in [Parallelism::Sequential, Parallelism::Threads(2), Parallelism::Auto] {
            assert_eq!(join(par, || 1, || "two"), (1, "two"), "{par:?}");
        }
    }

    #[test]
    fn join_runs_inline_under_sequential() {
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let run = |name: char| {
            order.lock().expect("no closure panics while holding it").push(name);
            std::thread::current().id()
        };
        let (a, b) = join(Parallelism::Sequential, || run('a'), || run('b'));
        assert_eq!((a, b), (caller, caller));
        assert_eq!(order.into_inner().expect("not poisoned"), ['a', 'b']);
        let (_, worker) = join(Parallelism::Threads(2), || (), || std::thread::current().id());
        assert_ne!(worker, caller);
    }

    #[test]
    fn join_resumes_a_worker_panic_with_its_payload() {
        for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
            let payload = std::panic::catch_unwind(|| join(par, || 1, || -> u8 { panic!("boom") }))
                .expect_err("the panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"), "{par:?}");
        }
    }

    #[test]
    fn derived_seeds_are_decorrelated() {
        let a = derive_seed(42, 0, 0);
        let b = derive_seed(42, 0, 1);
        let c = derive_seed(42, 1, 0);
        let d = derive_seed(43, 0, 0);
        assert!(a != b && a != c && a != d && b != c);
        // Stable across calls.
        assert_eq!(a, derive_seed(42, 0, 0));
    }
}
