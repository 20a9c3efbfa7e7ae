//! A real ring all-reduce over OS threads.
//!
//! This is the executable counterpart of [`crate::cost::allreduce_us`],
//! run rank-per-thread exactly as NCCL would run it across GPUs. The
//! algorithm is the canonical two-phase ring: a reduce-scatter (each rank
//! ends up owning the fully-reduced chunk `rank + 1`) followed by an
//! all-gather.
//!
//! It is the reference for the CPU training engine's replica sync, which
//! runs in shared memory: the engine folds the replicas' gradient
//! accumulators straight into its output over the same [`chunk_bounds`]
//! in the same per-chunk order, so its gradients equal this ring's bit
//! for bit without the threads, channels or flat copies.
//!
//! Buffers of any length are supported, including lengths smaller than the
//! rank count (chunks may be empty).

use crossbeam::channel::{bounded, Receiver, Sender};

/// Chunk boundaries: splits `len` into `n` nearly-even ranges, the
/// first `len % n` one element longer. Chunk `c` of the ring's result is
/// the left fold `x_c + x_(c+1) + ... + x_(c+n-1)` (ranks mod `n`), so
/// any reduction that walks these bounds in that order reproduces
/// [`allreduce_sum`] bit for bit.
pub fn chunk_bounds(len: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    let base = len / n;
    let extra = len % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let sz = base + usize::from(i < extra);
        out.push(start..start + sz);
        start += sz;
    }
    out
}

/// In-place ring all-reduce (sum) across all buffers.
///
/// On return every buffer contains the element-wise sum of all inputs.
/// Buffers must share a common length.
///
/// ```
/// let mut grads = vec![vec![1.0_f32, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
/// dapple_collectives::allreduce_sum(&mut grads);
/// assert_eq!(grads[0], vec![111.0, 222.0]);
/// assert_eq!(grads[2], vec![111.0, 222.0]);
/// ```
///
/// # Panics
///
/// Panics when buffers have differing lengths.
pub fn allreduce_sum(buffers: &mut [Vec<f32>]) {
    let n = buffers.len();
    if n <= 1 {
        return;
    }
    let len = buffers[0].len();
    assert!(
        buffers.iter().all(|b| b.len() == len),
        "allreduce buffers must share a length"
    );
    if len == 0 {
        return;
    }

    let bounds = chunk_bounds(len, n);

    // Ring channels: rank i sends to (i + 1) % n.
    let mut senders: Vec<Option<Sender<Vec<f32>>>> = Vec::with_capacity(n);
    let mut receivers: Vec<Option<Receiver<Vec<f32>>>> = (0..n).map(|_| None).collect();
    for i in 0..n {
        let (tx, rx) = bounded::<Vec<f32>>(1);
        senders.push(Some(tx));
        receivers[(i + 1) % n] = Some(rx);
    }

    std::thread::scope(|scope| {
        for (rank, buf) in buffers.iter_mut().enumerate() {
            let tx = senders[rank].take().expect("sender wired once");
            let rx = receivers[rank].take().expect("receiver wired once");
            let bounds = bounds.clone();
            scope.spawn(move || {
                // One scratch buffer per rank that circulates ownership
                // around the ring: each step loads the outgoing chunk
                // into the local scratch, sends the `Vec` itself, and
                // adopts the neighbor's incoming buffer as the next
                // step's scratch. Capacity is the largest chunk (chunk
                // sizes differ by at most one), so none of the 2(n-1)
                // steps reallocates — one allocation per rank total,
                // instead of one per step.
                let max_chunk = bounds.iter().map(std::ops::Range::len).max().unwrap_or(0);
                let mut scratch: Vec<f32> = Vec::with_capacity(max_chunk);
                // Phase 1: reduce-scatter. In step s, rank r sends chunk
                // (r - s) and accumulates incoming chunk (r - s - 1).
                for s in 0..n - 1 {
                    let send_idx = (rank + n - s) % n;
                    let recv_idx = (rank + n - s - 1) % n;
                    scratch.clear();
                    scratch.extend_from_slice(&buf[bounds[send_idx].clone()]);
                    tx.send(scratch).expect("ring peer alive");
                    let incoming = rx.recv().expect("ring peer alive");
                    for (dst, src) in buf[bounds[recv_idx].clone()].iter_mut().zip(&incoming) {
                        *dst += *src;
                    }
                    scratch = incoming;
                }
                // Phase 2: all-gather. Rank r owns chunk (r + 1); in step s
                // it sends chunk (r + 1 - s) and installs chunk (r - s).
                for s in 0..n - 1 {
                    let send_idx = (rank + 1 + n - s) % n;
                    let recv_idx = (rank + n - s) % n;
                    scratch.clear();
                    scratch.extend_from_slice(&buf[bounds[send_idx].clone()]);
                    tx.send(scratch).expect("ring peer alive");
                    let incoming = rx.recv().expect("ring peer alive");
                    buf[bounds[recv_idx].clone()].copy_from_slice(&incoming);
                    scratch = incoming;
                }
            });
        }
    });
}

/// In-place ring all-reduce (mean): sum followed by division by the rank
/// count — the gradient-averaging step of synchronous data parallelism.
pub fn allreduce_mean(buffers: &mut [Vec<f32>]) {
    let n = buffers.len();
    allreduce_sum(buffers);
    if n > 1 {
        let inv = 1.0 / n as f32;
        for buf in buffers.iter_mut() {
            for v in buf.iter_mut() {
                *v *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_sum(buffers: &[Vec<f32>]) -> Vec<f32> {
        let len = buffers[0].len();
        let mut out = vec![0.0f32; len];
        for b in buffers {
            for (o, v) in out.iter_mut().zip(b) {
                *o += *v;
            }
        }
        out
    }

    #[test]
    fn two_ranks_sum() {
        let mut bufs = vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]];
        allreduce_sum(&mut bufs);
        assert_eq!(bufs[0], vec![11.0, 22.0, 33.0]);
        assert_eq!(bufs[1], vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn single_rank_is_identity() {
        let mut bufs = vec![vec![1.0, 2.0]];
        allreduce_sum(&mut bufs);
        assert_eq!(bufs[0], vec![1.0, 2.0]);
    }

    #[test]
    fn empty_buffers_are_fine() {
        let mut bufs = vec![vec![], vec![], vec![]];
        allreduce_sum(&mut bufs);
        assert!(bufs.iter().all(Vec::is_empty));
    }

    #[test]
    fn short_buffer_fewer_elements_than_ranks() {
        // 5 ranks, 3 elements: two chunks are empty.
        let mut bufs: Vec<Vec<f32>> = (0..5).map(|r| vec![r as f32; 3]).collect();
        let expect = naive_sum(&bufs);
        allreduce_sum(&mut bufs);
        for b in &bufs {
            assert_eq!(*b, expect);
        }
    }

    #[test]
    fn mean_divides_by_rank_count() {
        let mut bufs = vec![vec![2.0, 4.0], vec![4.0, 8.0], vec![6.0, 12.0]];
        allreduce_mean(&mut bufs);
        for b in &bufs {
            assert_eq!(*b, vec![4.0, 8.0]);
        }
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn mismatched_lengths_panic() {
        let mut bufs = vec![vec![1.0], vec![1.0, 2.0]];
        allreduce_sum(&mut bufs);
    }

    #[test]
    fn chunk_bounds_cover_exactly() {
        for len in [0usize, 1, 7, 16, 100] {
            for n in 1..=8 {
                let b = chunk_bounds(len, n);
                assert_eq!(b.len(), n);
                assert_eq!(b[0].start, 0);
                assert_eq!(b[n - 1].end, len);
                for w in b.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_naive_sum(
            n in 2usize..8,
            len in 0usize..64,
            seed in 0u64..1000,
        ) {
            // Deterministic pseudo-random fill without pulling in rand here.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            };
            let mut bufs: Vec<Vec<f32>> =
                (0..n).map(|_| (0..len).map(|_| next()).collect()).collect();
            let expect = if len == 0 { vec![] } else { naive_sum(&bufs) };
            allreduce_sum(&mut bufs);
            for b in &bufs {
                for (got, want) in b.iter().zip(&expect) {
                    prop_assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0));
                }
            }
        }
    }
}
