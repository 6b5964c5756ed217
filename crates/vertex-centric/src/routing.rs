//! Message buffers, routing between simulated workers, and per-worker inbox grouping.

/// A message in flight: `(destination vertex, sending vertex, message)`. For a message aligned
/// to 8 bytes the sender fills what would be padding in a `(destination, message)` pair.
pub type Envelope<M> = (u32, u32, M);

/// Outgoing message buffers of one worker during one superstep, bucketed by destination worker.
///
/// The buffers double as the communication accounting point: every `push` records whether the
/// destination vertex lives on the sending worker (local) or on another worker (remote), and
/// how many bytes the message would occupy on the wire.
#[derive(Debug)]
pub struct WorkerOutbox<M> {
    /// `buffers[w]` holds the envelopes addressed to worker `w`, in push order.
    buffers: Vec<Vec<Envelope<M>>>,
    /// Index of the sending worker (used to classify local vs. remote).
    sender: usize,
    /// Total messages pushed.
    pub messages: u64,
    /// Messages addressed to a different worker.
    pub remote_messages: u64,
    /// Total estimated bytes pushed.
    pub bytes: u64,
    /// Estimated bytes addressed to a different worker.
    pub remote_bytes: u64,
}

impl<M> WorkerOutbox<M> {
    /// Creates an empty outbox for `sender` in a cluster of `num_workers` workers.
    pub fn new(sender: usize, num_workers: usize) -> Self {
        WorkerOutbox {
            buffers: (0..num_workers).map(|_| Vec::new()).collect(),
            sender,
            messages: 0,
            remote_messages: 0,
            bytes: 0,
            remote_bytes: 0,
        }
    }

    /// Number of workers the outbox can address.
    pub fn num_workers(&self) -> usize {
        self.buffers.len()
    }

    /// Queues a message from `sender_vertex` to `dest_vertex`, recording its estimated `size`
    /// in bytes. Senders must be pushed in ascending order, as a worker computes its vertices
    /// ([`route`] relies on it).
    pub fn push(&mut self, sender_vertex: u32, dest_vertex: u32, message: M, size: usize) {
        let dest_worker = dest_vertex as usize % self.buffers.len();
        self.messages += 1;
        self.bytes += size as u64;
        if dest_worker != self.sender {
            self.remote_messages += 1;
            self.remote_bytes += size as u64;
        }
        self.buffers[dest_worker].push((dest_vertex, sender_vertex, message));
    }

    /// Consumes the outbox, returning the per-destination-worker buffers.
    pub fn into_buffers(self) -> Vec<Vec<Envelope<M>>> {
        self.buffers
    }
}

/// Routes the outboxes of all workers into per-destination-worker inboxes.
///
/// `inboxes[w]` receives every message addressed to a vertex owned by worker `w`, in ascending
/// sender-vertex order, each sender's messages in send order. Since [`group_inbox`] keeps
/// arrival order within each vertex, every vertex receives its messages in ascending sender
/// order, whatever the worker count.
pub fn route<M>(outboxes: Vec<WorkerOutbox<M>>) -> Vec<Vec<Envelope<M>>> {
    let num_workers = outboxes.first().map_or(0, |o| o.num_workers());
    let mut buffers: Vec<_> = outboxes.into_iter().map(|o| o.into_buffers()).collect();
    (0..num_workers)
        .map(|dest| merge_by_sender(buffers.iter_mut().map(|b| std::mem::take(&mut b[dest]))))
        .collect()
}

/// Merges buffers that are each sorted by sender into one sorted by sender, equal senders in
/// buffer order: pairwise, from the first buffer on, so a single buffer is not copied.
fn merge_by_sender<M>(buffers: impl Iterator<Item = Vec<Envelope<M>>>) -> Vec<Envelope<M>> {
    buffers
        .reduce(|earlier, later| {
            if earlier.is_empty() || later.is_empty() {
                return if earlier.is_empty() { later } else { earlier };
            }
            let mut merged = Vec::with_capacity(earlier.len() + later.len());
            let (mut a, mut b) = (earlier.into_iter(), later.into_iter());
            while let (Some(x), Some(y)) = (a.as_slice().first(), b.as_slice().first()) {
                merged.extend(if y.1 < x.1 { b.next() } else { a.next() });
            }
            merged.extend(a.chain(b));
            merged
        })
        .unwrap_or_default()
}

/// One worker's inbox grouped by destination vertex: a flat message array plus offsets.
///
/// The messages of the worker-local vertex `local` (vertex `local * num_workers + worker`) are
/// `messages[offsets[local]..offsets[local + 1]]`, in arrival order after combining. Built by
/// [`group_inbox`]; the grouping allocates a fixed number of buffers per worker, however many
/// vertices and messages the inbox holds.
#[derive(Debug)]
pub struct GroupedInbox<M> {
    messages: Vec<M>,
    offsets: Vec<usize>,
    combined: u64,
}

impl<M> GroupedInbox<M> {
    /// The messages delivered to the worker-local vertex `local`.
    ///
    /// # Panics
    /// Panics if `local` is not below the local vertex count the inbox was grouped for.
    pub fn messages(&self, local: usize) -> &[M] {
        &self.messages[self.offsets[local]..self.offsets[local + 1]]
    }

    /// Number of messages eliminated by combining.
    pub fn combined(&self) -> u64 {
        self.combined
    }
}

/// Groups an inbox by destination vertex, applying an optional combiner.
///
/// One counting sort over the worker-local vertex index (`vertex / num_workers`) orders the
/// inbox by destination, keeping arrival order within each vertex; `combiner` is then folded
/// over each vertex's run in that order, merging a message into the vertex's last kept one
/// whenever it returns `Some`.
///
/// # Panics
/// Panics if a destination's local index is not below `local_vertex_count`, or if the inbox
/// holds `u32::MAX` messages or more.
pub fn group_inbox<M, F>(
    mut inbox: Vec<Envelope<M>>,
    num_workers: usize,
    local_vertex_count: usize,
    combiner: F,
) -> GroupedInbox<M>
where
    F: Fn(&M, &M) -> Option<M>,
{
    assert!(
        inbox.len() < u32::MAX as usize,
        "an inbox holds fewer than u32::MAX messages"
    );
    let local = |vertex: u32| vertex as usize / num_workers;
    // `starts[i]` is where vertex i's run begins in the sorted order.
    let mut starts = vec![0usize; local_vertex_count + 1];
    for &(vertex, _, _) in &inbox {
        starts[local(vertex) + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    // Each message's sorted position, then the permutation applied in place by cycles.
    let mut cursor = starts.clone();
    let mut position: Vec<u32> = inbox
        .iter()
        .map(|&(vertex, _, _)| {
            let slot = &mut cursor[local(vertex)];
            *slot += 1;
            (*slot - 1) as u32
        })
        .collect();
    for i in 0..inbox.len() {
        while position[i] as usize != i {
            let j = position[i] as usize;
            inbox.swap(i, j);
            position.swap(i, j);
        }
    }
    drop(position);

    let mut messages = Vec::with_capacity(inbox.len());
    let mut offsets = Vec::with_capacity(starts.len());
    offsets.push(0);
    let mut combined = 0u64;
    let mut sorted = inbox.into_iter().map(|(_, _, message)| message);
    for run in starts.windows(2) {
        let first = messages.len();
        for message in sorted.by_ref().take(run[1] - run[0]) {
            if let Some(merged) = messages[first..]
                .last()
                .and_then(|last| combiner(last, &message))
            {
                *messages.last_mut().expect("the run is non-empty") = merged;
                combined += 1;
            } else {
                messages.push(message);
            }
        }
        offsets.push(messages.len());
    }
    GroupedInbox {
        messages,
        offsets,
        combined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn outbox_classifies_local_and_remote() {
        let mut outbox: WorkerOutbox<u64> = WorkerOutbox::new(0, 2);
        outbox.push(4, 0, 10, 8); // vertex 0 -> worker 0 (local)
        outbox.push(4, 1, 20, 8); // vertex 1 -> worker 1 (remote)
        outbox.push(6, 2, 30, 8); // vertex 2 -> worker 0 (local)
        outbox.push(6, 3, 40, 8); // vertex 3 -> worker 1 (remote)
        assert_eq!(outbox.messages, 4);
        assert_eq!(outbox.remote_messages, 2);
        assert_eq!(outbox.bytes, 32);
        assert_eq!(outbox.remote_bytes, 16);
        let buffers = outbox.into_buffers();
        assert_eq!(buffers[0], vec![(0, 4, 10), (2, 6, 30)]);
        assert_eq!(buffers[1], vec![(1, 4, 20), (3, 6, 40)]);
    }

    #[test]
    fn route_concatenates_in_sender_order() {
        // Worker 0 owns the even senders, worker 1 the odd ones; each inbox interleaves them
        // by sender vertex, keeping each sender's messages in send order.
        let mut o0: WorkerOutbox<&str> = WorkerOutbox::new(0, 2);
        o0.push(0, 1, "0a", 1);
        o0.push(2, 1, "2a", 1);
        o0.push(2, 1, "2b", 1);
        o0.push(4, 0, "4a", 1);
        let mut o1: WorkerOutbox<&str> = WorkerOutbox::new(1, 2);
        o1.push(1, 1, "1a", 1);
        o1.push(1, 0, "1b", 1);
        o1.push(3, 1, "3a", 1);
        o1.push(5, 1, "5a", 1);
        let inboxes = route(vec![o0, o1]);
        assert_eq!(inboxes[0], vec![(0, 1, "1b"), (0, 4, "4a")]);
        assert_eq!(
            inboxes[1],
            vec![
                (1, 0, "0a"),
                (1, 1, "1a"),
                (1, 2, "2a"),
                (1, 2, "2b"),
                (1, 3, "3a"),
                (1, 5, "5a"),
            ]
        );
    }

    #[test]
    fn merge_keeps_equal_senders_in_buffer_order() {
        let merged = merge_by_sender(
            [
                vec![(0, 3, 'a'), (0, 5, 'b')],
                Vec::new(),
                vec![(0, 3, 'c'), (0, 4, 'd')],
                vec![(0, 1, 'e')],
            ]
            .into_iter(),
        );
        let order: String = merged.iter().map(|e| e.2).collect();
        assert_eq!(order, "eacdb");
    }

    /// The grouped messages of every local vertex, in local-index order.
    fn runs<M: Clone>(grouped: &GroupedInbox<M>, local_count: usize) -> Vec<Vec<M>> {
        (0..local_count)
            .map(|local| grouped.messages(local).to_vec())
            .collect()
    }

    #[test]
    fn group_inbox_without_combiner() {
        let inbox = vec![(0u32, 0u32, 1u32), (2, 0, 2), (0, 1, 3)];
        // 2 workers; this is worker 0 owning vertices 0 and 2 (local indices 0 and 1).
        let inbox = group_inbox(inbox, 2, 2, |_, _| None);
        let (grouped, combined) = (runs(&inbox, 2), inbox.combined());
        assert_eq!(grouped[0], vec![1, 3]);
        assert_eq!(grouped[1], vec![2]);
        assert_eq!(combined, 0);
    }

    #[test]
    fn group_inbox_with_summing_combiner() {
        let inbox = vec![(0u32, 0u32, 1u32), (0, 1, 2), (0, 2, 3), (2, 3, 10)];
        let inbox = group_inbox(inbox, 2, 2, |a, b| Some(a + b));
        let (grouped, combined) = (runs(&inbox, 2), inbox.combined());
        assert_eq!(grouped[0], vec![6]);
        assert_eq!(grouped[1], vec![10]);
        assert_eq!(combined, 2);
    }

    /// The per-vertex grouping the flat one replaced: one `Vec` per local vertex, each message
    /// combined into its vertex's last kept message or appended, in arrival order.
    fn reference_grouping<M, F>(
        inbox: Vec<Envelope<M>>,
        num_workers: usize,
        local_count: usize,
        combiner: F,
    ) -> (Vec<Vec<M>>, u64)
    where
        F: Fn(&M, &M) -> Option<M>,
    {
        let mut grouped: Vec<Vec<M>> = (0..local_count).map(|_| Vec::new()).collect();
        let mut combined = 0u64;
        for (vertex, _, message) in inbox {
            let slot = &mut grouped[vertex as usize / num_workers];
            if let Some(merged) = slot.last().and_then(|last| combiner(last, &message)) {
                *slot.last_mut().expect("slot non-empty") = merged;
                combined += 1;
            } else {
                slot.push(message);
            }
        }
        (grouped, combined)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random inboxes of one worker among 1–5 — vertices with no messages, destinations
        /// repeated in any order — grouped flat and by the per-vertex reference, with a
        /// combiner that merges pairs of equal parity and refuses the rest.
        #[test]
        fn flat_grouping_matches_the_per_vertex_reference(
            num_workers in 1usize..6,
            worker in 0usize..5,
            local_count in 1usize..12,
            draws in prop::collection::vec((0usize..64, 0u64..100), 0..80),
        ) {
            let worker = worker % num_workers;
            let inbox: Vec<Envelope<u64>> = draws
                .iter()
                .enumerate()
                .map(|(sender, &(dest, message))| {
                    (((dest % local_count) * num_workers + worker) as u32, sender as u32, message)
                })
                .collect();
            let parity = |a: &u64, b: &u64| ((a ^ b) & 1 == 0).then_some(a + b);
            let (expected, expected_combined) =
                reference_grouping(inbox.clone(), num_workers, local_count, parity);
            let grouped = group_inbox(inbox.clone(), num_workers, local_count, parity);
            prop_assert_eq!(runs(&grouped, local_count), expected);
            prop_assert_eq!(grouped.combined(), expected_combined);

            let (expected, _) = reference_grouping(inbox.clone(), num_workers, local_count, |_, _| None);
            let grouped = group_inbox(inbox, num_workers, local_count, |_, _| None);
            prop_assert_eq!(runs(&grouped, local_count), expected);
            prop_assert_eq!(grouped.combined(), 0);
        }
    }

    #[test]
    fn route_empty_outboxes() {
        let inboxes: Vec<Vec<Envelope<u8>>> = route(Vec::new());
        assert!(inboxes.is_empty());
    }
}
