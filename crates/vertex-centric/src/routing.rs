//! Message buffers and per-worker inbox grouping.
//!
//! A message travels in two steps. In the superstep that sends it, the sending worker stores
//! the payload once in its [`WorkerOutbox`] and queues one 12-byte [`Envelope`] per
//! destination vertex, in the lane of the destination's worker. In the next superstep the
//! outboxes are read-only, and every worker groups the envelopes addressed to it, on its own
//! thread, into its [`GroupedInbox`]: one counting sort that walks the source lanes in merged
//! sender order and writes a `(store, index)` reference to each payload straight into its
//! final slot. No payload is cloned or moved on the way, and every vertex reads its messages
//! ([`Messages`]) in ascending sender order, each sender's in send order.

use crate::program::Combiner;

/// A queued message: `(destination, sending vertex, payload index)`. The destination is the
/// receiving vertex's local index on its worker (`vertex / num_workers`, the lane names the
/// worker), and the payload index points into the sender's [`WorkerOutbox::payloads`]. Twelve
/// bytes whatever the message type.
pub type Envelope = (u32, u32, u32);

/// A reference to a delivered payload: `(store, index)`. Store `o` below the worker count is
/// worker `o`'s outbox of the previous superstep; the store after them holds the messages the
/// receiving worker combined.
type PayloadRef = (u32, u32);

/// The envelopes one worker addresses to one destination worker, in send order. Each lane
/// sits on cache lines of its own, since different workers push to their lanes concurrently.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Lane(Vec<Envelope>);

/// Outgoing messages of one worker during one superstep: each payload once, plus one envelope
/// per destination vertex, bucketed by destination worker.
///
/// The outbox doubles as the communication accounting point: every destination is recorded as
/// local (owned by the sending worker) or remote, and charged the payload's estimated wire
/// size, as if each destination received a copy. An outbox sits on cache lines of its own, so
/// workers updating their counters side by side never write to one line.
#[derive(Debug)]
#[repr(align(128))]
pub struct WorkerOutbox<M> {
    /// The payloads sent, one per send call, in send order.
    payloads: Vec<M>,
    /// `lanes[w]` holds the envelopes addressed to worker `w`.
    lanes: Vec<Lane>,
    /// Index of the sending worker (used to classify local vs. remote).
    sender: usize,
    /// Total messages queued (one per destination).
    pub messages: u64,
    /// Messages addressed to a different worker.
    pub remote_messages: u64,
    /// Total estimated bytes queued.
    pub bytes: u64,
    /// Estimated bytes addressed to a different worker.
    pub remote_bytes: u64,
}

impl<M> WorkerOutbox<M> {
    /// Creates an empty outbox for `sender` in a cluster of `num_workers` workers.
    pub fn new(sender: usize, num_workers: usize) -> Self {
        WorkerOutbox {
            payloads: Vec::new(),
            lanes: (0..num_workers).map(|_| Lane::default()).collect(),
            sender,
            messages: 0,
            remote_messages: 0,
            bytes: 0,
            remote_bytes: 0,
        }
    }

    /// Number of workers the outbox can address.
    pub fn num_workers(&self) -> usize {
        self.lanes.len()
    }

    /// Empties the outbox for a new superstep, keeping the capacity of its buffers.
    pub fn clear(&mut self) {
        self.payloads.clear();
        for lane in &mut self.lanes {
            lane.0.clear();
        }
        self.messages = 0;
        self.remote_messages = 0;
        self.bytes = 0;
        self.remote_bytes = 0;
    }

    /// Sends `message` from `sender_vertex` to every vertex of `destinations`, charging `size`
    /// estimated bytes per destination. The payload is stored once, however many destinations
    /// it has (none when `destinations` is empty). Senders must be pushed in ascending order,
    /// as a worker computes its vertices ([`GroupedInbox::group`] relies on it).
    ///
    /// # Panics
    /// Panics if the outbox already holds `u32::MAX` payloads.
    pub fn push(&mut self, sender_vertex: u32, destinations: &[u32], message: M, size: usize) {
        if destinations.is_empty() {
            return;
        }
        assert!(
            self.payloads.len() < u32::MAX as usize,
            "an outbox holds fewer than u32::MAX payloads"
        );
        let payload = self.payloads.len() as u32;
        self.payloads.push(message);
        let num_workers = self.lanes.len() as u32;
        let mut remote = 0u64;
        for &dest in destinations {
            let worker = (dest % num_workers) as usize;
            remote += u64::from(worker != self.sender);
            self.lanes[worker]
                .0
                .push((dest / num_workers, sender_vertex, payload));
        }
        let count = destinations.len() as u64;
        self.messages += count;
        self.remote_messages += remote;
        self.bytes += count * size as u64;
        self.remote_bytes += remote * size as u64;
    }

    /// The envelopes addressed to worker `worker`, in send order.
    pub fn lane(&self, worker: usize) -> &[Envelope] {
        &self.lanes[worker].0
    }

    /// The payloads sent, one per send call, in send order.
    pub fn payloads(&self) -> &[M] {
        &self.payloads
    }

    /// Whether no envelope is queued.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|lane| lane.0.is_empty())
    }
}

/// One worker's inbox grouped by destination vertex: a flat array of payload references plus
/// offsets, kept across supersteps so that grouping reuses its buffers.
pub struct GroupedInbox<M> {
    /// Local vertex `l`'s messages are `refs[offsets[l]..offsets[l + 1]]`.
    refs: Vec<PayloadRef>,
    offsets: Vec<u32>,
    /// Messages produced by the combiner; the last store of every reference.
    combined: Vec<M>,
    /// Each source lane's next envelope during the merged walk.
    heads: Vec<usize>,
}

impl<M> Default for GroupedInbox<M> {
    fn default() -> Self {
        GroupedInbox {
            refs: Vec::new(),
            offsets: Vec::new(),
            combined: Vec::new(),
            heads: Vec::new(),
        }
    }
}

impl<M> GroupedInbox<M> {
    /// Groups the envelopes that `outboxes` (one per worker, indexed by sending worker)
    /// address to `worker`, whose vertices have local indices below `local_vertex_count`.
    ///
    /// One counting sort over the destination's local index: a pass counts each vertex's
    /// messages, and a second walks the lanes in merged sender order (ascending sender; equal
    /// senders, which only a hand-built outbox set can hold, in outbox order) and writes each
    /// payload's reference into its vertex's next slot. Every vertex so receives its messages
    /// in ascending sender order, each sender's in send order, at any worker count. With a
    /// `combiner`, each message is then merged into its vertex's last kept one whenever the
    /// combiner returns `Some`, in that order; without one nothing is done per message.
    ///
    /// # Panics
    /// Panics if a destination's local index is not below `local_vertex_count`, or if the
    /// worker receives `u32::MAX` messages or more.
    pub fn group<'a>(
        &'a mut self,
        outboxes: &'a [WorkerOutbox<M>],
        worker: usize,
        local_vertex_count: usize,
        combiner: Option<Combiner<M>>,
    ) -> Delivered<'a, M> {
        let GroupedInbox {
            refs,
            offsets,
            combined,
            heads,
        } = self;
        let total: usize = outboxes.iter().map(|o| o.lane(worker).len()).sum();
        assert!(
            total < u32::MAX as usize,
            "a worker receives fewer than u32::MAX messages"
        );
        // Count into `offsets[l + 2]` and take prefix sums, so `offsets[l + 1]` is where vertex
        // l's run starts; it serves as l's write cursor and ends at l's end, l + 1's start.
        offsets.clear();
        offsets.resize(local_vertex_count + 2, 0);
        for outbox in outboxes {
            for &(local, _, _) in outbox.lane(worker) {
                offsets[local as usize + 2] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        refs.clear();
        refs.resize(total, (0, 0));
        heads.clear();
        heads.resize(outboxes.len(), 0);
        // Take, run by run, the lane whose next envelope has the lowest sender.
        loop {
            let mut next: Option<(u32, usize)> = None;
            for (store, outbox) in outboxes.iter().enumerate() {
                if let Some(&(_, sender, _)) = outbox.lane(worker).get(heads[store]) {
                    if next.is_none_or(|(lowest, _)| sender < lowest) {
                        next = Some((sender, store));
                    }
                }
            }
            let Some((sender, store)) = next else { break };
            let lane = &outboxes[store].lane(worker)[heads[store]..];
            let run = lane.iter().take_while(|envelope| envelope.1 == sender);
            let mut taken = 0;
            for &(local, _, payload) in run {
                let cursor = &mut offsets[local as usize + 1];
                refs[*cursor as usize] = (store as u32, payload);
                *cursor += 1;
                taken += 1;
            }
            heads[store] += taken;
        }
        offsets.truncate(local_vertex_count + 1);

        combined.clear();
        let mut merges = 0u64;
        if let Some(combine) = combiner {
            let combined_store = outboxes.len() as u32;
            // Compact each run in place, merging into the run's last kept reference.
            let mut write = 0usize;
            let mut read = 0usize;
            for l in 0..local_vertex_count {
                let end = offsets[l + 1] as usize;
                let first = write;
                while read < end {
                    let incoming = refs[read];
                    read += 1;
                    if write > first {
                        let last = refs[write - 1];
                        let merged = combine(
                            payload_of(outboxes, combined, last),
                            payload_of(outboxes, combined, incoming),
                        );
                        if let Some(merged) = merged {
                            if last.0 == combined_store {
                                combined[last.1 as usize] = merged;
                            } else {
                                refs[write - 1] = (combined_store, combined.len() as u32);
                                combined.push(merged);
                            }
                            merges += 1;
                            continue;
                        }
                    }
                    refs[write] = incoming;
                    write += 1;
                }
                offsets[l + 1] = write as u32;
            }
            refs.truncate(write);
        }

        let stores = outboxes
            .iter()
            .map(|o| o.payloads())
            .chain([&combined[..]])
            .collect();
        Delivered {
            refs,
            offsets,
            stores,
            combined: merges,
        }
    }
}

/// The payload a reference points to.
fn payload_of<'a, M>(
    outboxes: &'a [WorkerOutbox<M>],
    combined: &'a [M],
    (store, index): PayloadRef,
) -> &'a M {
    match outboxes.get(store as usize) {
        Some(outbox) => &outbox.payloads[index as usize],
        None => &combined[index as usize],
    }
}

/// One worker's grouped messages for one superstep, as returned by [`GroupedInbox::group`].
pub struct Delivered<'a, M> {
    refs: &'a [PayloadRef],
    offsets: &'a [u32],
    /// Every outbox's payloads, then the combined messages.
    stores: Vec<&'a [M]>,
    combined: u64,
}

impl<M> Delivered<'_, M> {
    /// The messages delivered to the worker-local vertex `local`.
    ///
    /// # Panics
    /// Panics if `local` is not below the local vertex count the inbox was grouped for.
    pub fn messages(&self, local: usize) -> Messages<'_, M> {
        let (start, end) = (self.offsets[local], self.offsets[local + 1]);
        Messages {
            refs: &self.refs[start as usize..end as usize],
            stores: &self.stores,
        }
    }

    /// Number of messages eliminated by combining.
    pub fn combined(&self) -> u64 {
        self.combined
    }
}

/// The messages a vertex receives in one superstep, in ascending sender order, each sender's
/// in send order. A view: each message is read in place from the outbox that sent it.
pub struct Messages<'a, M> {
    refs: &'a [PayloadRef],
    stores: &'a [&'a [M]],
}

impl<M> Clone for Messages<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Messages<'_, M> {}

impl<'a, M> Messages<'a, M> {
    /// Number of messages.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether no message was delivered.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// The messages in delivery order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a M> + Clone + 'a {
        let stores = self.stores;
        self.refs
            .iter()
            .map(move |&(store, index)| &stores[store as usize][index as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `(destination vertex, sender, message)` for every envelope of `outbox` addressed to
    /// `worker`, in send order.
    fn addressed<M: Clone>(outbox: &WorkerOutbox<M>, worker: usize) -> Vec<(u32, u32, M)> {
        let num_workers = outbox.num_workers() as u32;
        outbox
            .lane(worker)
            .iter()
            .map(|&(local, sender, payload)| {
                let dest = local * num_workers + worker as u32;
                (dest, sender, outbox.payloads()[payload as usize].clone())
            })
            .collect()
    }

    /// The grouped messages of every local vertex of `worker`, in local-index order, with the
    /// number of messages combined.
    fn runs<M: Clone>(
        outboxes: &[WorkerOutbox<M>],
        worker: usize,
        local_count: usize,
        combiner: Option<Combiner<M>>,
    ) -> (Vec<Vec<M>>, u64) {
        let mut inbox = GroupedInbox::default();
        let delivered = inbox.group(outboxes, worker, local_count, combiner);
        let grouped = (0..local_count)
            .map(|local| delivered.messages(local).iter().cloned().collect())
            .collect();
        (grouped, delivered.combined())
    }

    /// One outbox per worker, each holding the given `(sender, destination, message)` sends.
    fn outboxes_of<M>(num_workers: usize, sends: Vec<Vec<(u32, u32, M)>>) -> Vec<WorkerOutbox<M>> {
        sends
            .into_iter()
            .enumerate()
            .map(|(worker, sends)| {
                let mut outbox = WorkerOutbox::new(worker, num_workers);
                for (sender, dest, message) in sends {
                    outbox.push(sender, &[dest], message, 1);
                }
                outbox
            })
            .collect()
    }

    #[test]
    fn outbox_classifies_local_and_remote() {
        let mut outbox: WorkerOutbox<u64> = WorkerOutbox::new(0, 2);
        outbox.push(4, &[0], 10, 8); // vertex 0 -> worker 0 (local)
        outbox.push(4, &[1], 20, 8); // vertex 1 -> worker 1 (remote)
        outbox.push(6, &[2], 30, 8); // vertex 2 -> worker 0 (local)
        outbox.push(6, &[3], 40, 8); // vertex 3 -> worker 1 (remote)
        assert_eq!(outbox.messages, 4);
        assert_eq!(outbox.remote_messages, 2);
        assert_eq!(outbox.bytes, 32);
        assert_eq!(outbox.remote_bytes, 16);
        assert_eq!(addressed(&outbox, 0), vec![(0, 4, 10), (2, 6, 30)]);
        assert_eq!(addressed(&outbox, 1), vec![(1, 4, 20), (3, 6, 40)]);
    }

    #[test]
    fn broadcast_stores_one_payload_and_charges_every_destination() {
        let mut outbox: WorkerOutbox<&str> = WorkerOutbox::new(1, 3);
        outbox.push(7, &[0, 1, 4, 5], "x", 8);
        outbox.push(7, &[], "dropped", 8);
        assert_eq!(outbox.payloads(), &["x"]);
        assert_eq!((outbox.messages, outbox.remote_messages), (4, 2));
        assert_eq!((outbox.bytes, outbox.remote_bytes), (32, 16));
        assert_eq!(outbox.lane(0), &[(0, 7, 0)]);
        assert_eq!(outbox.lane(1), &[(0, 7, 0), (1, 7, 0)]);
        assert_eq!(outbox.lane(2), &[(1, 7, 0)]);
        outbox.clear();
        assert!(outbox.is_empty() && outbox.payloads().is_empty());
        assert_eq!((outbox.messages, outbox.bytes), (0, 0));
    }

    #[test]
    fn route_concatenates_in_sender_order() {
        // Worker 0 owns the even senders, worker 1 the odd ones; each vertex receives them
        // interleaved by sender vertex, each sender's messages in send order.
        let outboxes = outboxes_of(
            2,
            vec![
                vec![(0, 1, "0a"), (2, 1, "2a"), (2, 1, "2b"), (4, 0, "4a")],
                vec![(1, 1, "1a"), (1, 0, "1b"), (3, 1, "3a"), (5, 1, "5a")],
            ],
        );
        assert_eq!(runs(&outboxes, 0, 1, None).0, vec![vec!["1b", "4a"]]);
        assert_eq!(
            runs(&outboxes, 1, 1, None).0,
            vec![vec!["0a", "1a", "2a", "2b", "3a", "5a"]]
        );
    }

    #[test]
    fn merge_keeps_equal_senders_in_buffer_order() {
        // Four source outboxes addressing vertex 0; sender 3 appears in two of them.
        let outboxes = outboxes_of(
            4,
            vec![
                vec![(3, 0, 'a'), (5, 0, 'b')],
                Vec::new(),
                vec![(3, 0, 'c'), (4, 0, 'd')],
                vec![(1, 0, 'e')],
            ],
        );
        let order: String = runs(&outboxes, 0, 1, None).0[0].iter().collect();
        assert_eq!(order, "eacdb");
    }

    #[test]
    fn group_inbox_without_combiner() {
        // 2 workers; worker 0 owns vertices 0 and 2 (local indices 0 and 1).
        let outboxes = outboxes_of(2, vec![vec![(0, 0, 1u32), (0, 2, 2)], vec![(1, 0, 3)]]);
        let (grouped, combined) = runs(&outboxes, 0, 2, None);
        assert_eq!(grouped[0], vec![1, 3]);
        assert_eq!(grouped[1], vec![2]);
        assert_eq!(combined, 0);
    }

    #[test]
    fn group_inbox_with_summing_combiner() {
        let outboxes = outboxes_of(
            2,
            vec![vec![(0, 0, 1u32), (2, 0, 3)], vec![(1, 0, 2), (3, 2, 10)]],
        );
        let (grouped, combined) = runs(&outboxes, 0, 2, Some(|a, b| Some(a + b)));
        assert_eq!(grouped[0], vec![6]);
        assert_eq!(grouped[1], vec![10]);
        assert_eq!(combined, 2);
    }

    /// The per-vertex grouping the flat one replaced: messages sorted by sender (stable, so
    /// equal senders keep send order), then one `Vec` per local vertex, each message combined
    /// into its vertex's last kept message or appended.
    fn reference_grouping<M: Clone>(
        outboxes: &[WorkerOutbox<M>],
        worker: usize,
        local_count: usize,
        combiner: Option<Combiner<M>>,
    ) -> (Vec<Vec<M>>, u64) {
        let num_workers = outboxes.len();
        let mut inbox: Vec<(u32, u32, M)> = outboxes
            .iter()
            .flat_map(|outbox| addressed(outbox, worker))
            .collect();
        inbox.sort_by_key(|&(_, sender, _)| sender);
        let mut grouped: Vec<Vec<M>> = (0..local_count).map(|_| Vec::new()).collect();
        let mut combined = 0u64;
        for (vertex, _, message) in inbox {
            let slot = &mut grouped[vertex as usize / num_workers];
            let merged = combiner.and_then(|c| slot.last().and_then(|last| c(last, &message)));
            if let Some(merged) = merged {
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

        /// Random sends between 1–5 workers — vertices with no messages, destinations
        /// repeated in any order, senders with several messages — grouped flat and by the
        /// per-vertex reference, with a combiner that merges pairs of equal parity and refuses
        /// the rest, and without one.
        #[test]
        fn flat_grouping_matches_the_per_vertex_reference(
            num_workers in 1usize..6,
            worker in 0usize..5,
            local_count in 1usize..12,
            draws in prop::collection::vec((0usize..40, 0usize..64, 0u64..100), 0..80),
        ) {
            let worker = worker % num_workers;
            // Each worker pushes its own senders (≡ worker mod num_workers) in ascending order,
            // to vertices of every worker; `worker` receives its share.
            let mut draws = draws;
            draws.sort_by_key(|&(sender, _, _)| sender);
            let mut sends: Vec<Vec<(u32, u32, u64)>> = vec![Vec::new(); num_workers];
            for (sender, dest, message) in draws {
                let dest = (dest % (local_count * num_workers)) as u32;
                sends[sender % num_workers].push((sender as u32, dest, message));
            }
            let outboxes = outboxes_of(num_workers, sends);
            let parity: Combiner<u64> = |a, b| ((a ^ b) & 1 == 0).then_some(a + b);
            for combiner in [Some(parity), None] {
                let expected = reference_grouping(&outboxes, worker, local_count, combiner);
                prop_assert_eq!(runs(&outboxes, worker, local_count, combiner), expected);
            }
        }
    }

    #[test]
    fn route_empty_outboxes() {
        let (grouped, combined) = runs::<u8>(&[], 0, 3, None);
        assert_eq!(grouped, vec![Vec::<u8>::new(); 3]);
        assert_eq!(combined, 0);
        let silent = outboxes_of::<u8>(2, vec![Vec::new(), Vec::new()]);
        assert_eq!(runs(&silent, 1, 2, None).0, vec![Vec::<u8>::new(); 2]);
    }

    #[test]
    fn grouped_inbox_reuses_its_buffers() {
        let outboxes = outboxes_of(1, vec![vec![(0, 1, 5u8), (1, 0, 6), (2, 1, 7)]]);
        let mut inbox = GroupedInbox::default();
        inbox.group(&outboxes, 0, 3, None);
        let capacity = inbox.refs.capacity();
        let delivered = inbox.group(&outboxes, 0, 3, None);
        assert_eq!(
            delivered.messages(1).iter().copied().collect::<Vec<_>>(),
            [5, 7]
        );
        assert_eq!(delivered.messages(0).iter().next(), Some(&6));
        assert!(delivered.messages(2).is_empty());
        assert_eq!(inbox.refs.capacity(), capacity);
    }
}
