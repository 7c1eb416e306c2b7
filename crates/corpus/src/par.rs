//! The crate's one parallel primitive: an ordered map over a slice.

use std::num::NonZeroUsize;

/// `items.iter().map(f).collect()`, spread over as many scoped threads
/// as the process may run on ([`std::thread::available_parallelism`],
/// which honours a CPU affinity mask) and there are items. Results come
/// back in input order; with one worker the map runs inline on the
/// caller; a panic in `f` resumes on the caller.
pub(crate) fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    par_map_on(cpus, items, f)
}

fn par_map_on<T: Sync, R: Send>(workers: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|s| {
        // Contiguous chunks, joined in spawn order.
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(workers))
            .map(|chunk| s.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_preserved_whatever_the_split() {
        let workers = 3;
        // 0, 1, n and n+1 items per worker, and fewer items than workers.
        for len in [0, 1, 2, 3, 4, 12, 13] {
            let items: Vec<usize> = (0..len).collect();
            let want: Vec<usize> = items.iter().map(|i| i * 10).collect();
            assert_eq!(par_map_on(workers, &items, |i| i * 10), want, "len {len}");
            assert_eq!(par_map_on(1, &items, |i| i * 10), want, "inline, len {len}");
            assert_eq!(par_map(&items, |i| i * 10), want, "default, len {len}");
        }
    }

    #[test]
    fn a_worker_panic_resumes_on_the_caller() {
        let items: Vec<usize> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map_on(4, &items, |&i| assert!(i != 5, "item {i}"));
        });
        let payload = caught.expect_err("the panic must propagate");
        assert!(payload
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("item 5")));
    }
}
