//! Fork/join facade over the scoped-thread [`crate::executor`].
//!
//! The profile algorithm and Monte-Carlo sweeps are embarrassingly parallel
//! across sources / replications; these helpers spread an indexed map across
//! the process-wide executor. The closure receives the item index so
//! replications can derive independent RNG seeds, and the `_with` variant
//! additionally threads a per-participant scratch state through every item a
//! participant processes — the hook the profile engine uses to reuse its
//! candidate buffers across sources instead of reallocating per source.
//!
//! Every call goes through the one process-wide executor (sized by
//! `OMNET_THREADS`, default one participant per core). Its helper permits
//! bound the helper threads process-wide, so nested maps — experiments ×
//! sources × replications — run inline once the permits are taken instead
//! of oversubscribing the machine.

use crate::executor;

/// Applies `f` to every index `0..n`, in parallel, returning results in order.
///
/// `f` must be `Sync` because multiple participants call it concurrently.
/// Work is distributed dynamically (shared claim cursor), so uneven per-item
/// cost — e.g. per-source profile computations on heterogeneous traces —
/// balances well. Work items are expected to be coarse (milliseconds and
/// up). Runs sequentially on the caller when `n <= 1`, when the executor has
/// a single participant (`OMNET_THREADS=1` or a one-core machine), or when
/// every helper permit is already held (e.g. by an enclosing map). A panic
/// in any item cancels the rest of the batch and is re-raised on the caller.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(n, || (), |(), i| f(i))
}

/// Like [`par_map`], but each participating thread first builds a private
/// scratch state with `init` and hands `f` a mutable reference to it for
/// every item that participant processes.
///
/// The scratch never crosses threads, so `f` can freely mutate it; it is
/// dropped when the participant leaves the batch. Use this to pool
/// allocations (buffers, arenas) across work items: with `k` participants
/// only `k` scratch states ever exist, no matter how large `n` is. The
/// sequential fallback builds exactly one scratch state.
pub fn par_map_with<T, S, I, F>(n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    executor::global().map_with(n, init, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_order() {
        let v = par_map(100, |i| i * i);
        assert_eq!(v.len(), 100);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        let v = par_map(64, |i| {
            let mut acc = 0u64;
            for k in 0..(i as u64 * 1000) {
                acc = acc.wrapping_add(k);
            }
            (i, acc)
        });
        assert!(v.iter().enumerate().all(|(i, (j, _))| i == *j));
    }

    #[test]
    fn non_copy_results() {
        let v = par_map(10, |i| vec![i; i]);
        assert_eq!(v[3], vec![3, 3, 3]);
    }

    #[test]
    fn scratch_reused_within_worker() {
        // Each participant's scratch counts the items it processed; every
        // observation is at least 1 (the scratch was handed in).
        let v = par_map_with(
            64,
            || 0usize,
            |seen, i| {
                *seen += 1;
                (i, *seen)
            },
        );
        assert!(v.iter().enumerate().all(|(i, (j, _))| i == *j));
        assert!(v.iter().all(|(_, seen)| *seen >= 1));
    }

    #[test]
    fn scratch_buffer_pooling_keeps_capacity() {
        // A Vec scratch grown by an early item stays grown for later items
        // on the same participant — the whole point of the pooling hook.
        let v = par_map_with(16, Vec::<u64>::new, |buf, i| {
            buf.clear();
            buf.extend(0..(i as u64 % 5) * 100);
            buf.len()
        });
        assert_eq!(v[3], 300);
        assert_eq!(v[4], 400);
        assert_eq!(v[5], 0);
    }

    #[test]
    fn nested_par_map_composes() {
        let v = par_map(6, |i| par_map(4, move |j| i * 4 + j));
        for (i, inner) in v.iter().enumerate() {
            assert_eq!(*inner, (0..4).map(|j| i * 4 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panic_in_item_propagates() {
        let r = std::panic::catch_unwind(|| {
            par_map(32, |i| {
                if i == 9 {
                    panic!("item 9 failed");
                }
                i
            })
        });
        assert!(r.is_err());
    }
}
