//! Model-checked properties of the serving stack's concurrency primitives.
//!
//! Every test runs the *real* production code (`spsc`, `Router`,
//! `ShardQueues`, `LocalShards`, `DrainGate`, `CompletionQueue`) under
//! the `wmlp-check` exhaustive interleaving explorer. Model event loops
//! stand in for `run_io_loop`: each serves its own shards through the
//! real `LocalShards`, hands replies for another loop's connections over
//! that loop's real `CompletionQueue` (one batch, one ring per pass),
//! and sleeps on a model doorbell with eventfd counting semantics. The
//! checked properties:
//!
//! 1. no lost wakeups   — every blocking `spsc` handoff completes in every
//!    schedule
//! 2. no deadlock       — detected automatically by the explorer
//! 3. `spsc` close drains all items
//! 4. `recv_batch` ≡ sequential `recv` × n
//! 5. a loop whose own connections have drained still serves a peer
//!    loop's queued job before it exits — and the seeded mutant that
//!    stops serving once its own connections drain is caught
//! 6. the non-blocking migration drain (the real `Router::dispatch` with
//!    a real `Partitioner` re-homing a key onto another loop's shard)
//!    keeps that key's requests in route order in every schedule — and
//!    the seeded mutant that bumps the epoch *without* draining is caught
//! 7. the eventfd wakeup handshake: the real `CompletionQueue` over a
//!    model doorbell with eventfd *counting* semantics loses no wakeup in
//!    any schedule, a completion racing a shutdown ring is never
//!    stranded, and the seeded dropped-notify mutant (a bell that
//!    publishes its count but never notifies) is caught as a deadlock
//! 8. two loops, each owning one shard, route into each other's shards
//!    through a plan change with no deadlock, every request answered
//!    once, and no per-connection reordering
//!
//! Fixtures are deliberately tiny (ring capacities 1–2, ≤ 2 loops, 1–3
//! requests) — exhaustive exploration is exponential in yield points —
//! and each test also asserts determinism where the schedule count is
//! part of the contract.

// lint:orderings(SeqCst): the fixtures publish a flag or a count before
// ringing a bell; the strongest ordering keeps the model's
// publish-then-ring story identical to production's.

use std::sync::{mpsc, Arc};

use wmlp_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use wmlp_check::sync::{Condvar, Mutex};
use wmlp_check::{explore, Config};
use wmlp_router::{PartitionMode, PartitionSpec};
use wmlp_serve::notify::{CompletionQueue, Doorbell};
use wmlp_serve::server::Router;
use wmlp_serve::shard::{ConnAddr, LocalShards, ReplyTo, ShardJob, ShardMsg, ShardStats};
use wmlp_serve::spsc;

use wmlp_check::thread::spawn_named;
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::storage::{SimStorage, Storage, StorageError, StorageSnapshot};

fn cfg() -> Config {
    Config::default()
}

/// Properties 1 + 2: a capacity-1 ring forces strict producer/consumer
/// alternation through both condvars; any lost wakeup or deadlock in the
/// notify protocol fails some schedule.
#[test]
fn spsc_capacity_one_handoff_never_loses_a_wakeup() {
    let report = explore(cfg(), || {
        let (tx, rx) = spsc::channel::<u32>(1);
        let producer = spawn_named("producer", move || {
            for i in 0..3u32 {
                assert!(tx.send(i).is_ok(), "receiver alive during send");
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1, 2], "items in order, none lost");
        producer.join().expect("join producer");
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

/// Property 3: dropping the sender closes the ring, and the receiver still
/// sees every item that was accepted before the close.
#[test]
fn spsc_close_drains_all_accepted_items() {
    let report = explore(cfg(), || {
        let (tx, rx) = spsc::channel::<u32>(4);
        let producer = spawn_named("producer", move || {
            for i in 0..3u32 {
                assert!(tx.send(i).is_ok());
            }
            // tx drops here: the ring closes with items possibly queued.
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1, 2], "close must drain, not drop");
        producer.join().expect("join producer");
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated);
}

/// Property 4: under every interleaving, draining via `recv_batch` yields
/// exactly the sequence sequential `recv` calls would — the batch API is
/// an amortization, not a semantic change.
#[test]
fn spsc_recv_batch_equals_sequential_recv() {
    let run = |batched: bool| {
        explore(cfg(), move || {
            let (tx, rx) = spsc::channel::<u32>(2);
            let producer = spawn_named("producer", move || {
                for i in 0..3u32 {
                    assert!(tx.send(i).is_ok());
                }
            });
            let mut got = Vec::new();
            if batched {
                let mut batch = Vec::new();
                loop {
                    batch.clear();
                    let n = rx.recv_batch(&mut batch, 2);
                    if n == 0 {
                        break;
                    }
                    assert!(n <= 2, "batch respects max");
                    got.extend_from_slice(&batch);
                }
            } else {
                while let Some(v) = rx.recv() {
                    got.push(v);
                }
            }
            assert_eq!(got, vec![0, 1, 2], "same drain order either way");
            producer.join().expect("join producer");
        })
    };
    let batched = run(true);
    let sequential = run(false);
    assert!(batched.failure.is_none(), "{}", batched.failure.unwrap());
    assert!(
        sequential.failure.is_none(),
        "{}",
        sequential.failure.unwrap()
    );
    assert!(!batched.truncated && !sequential.truncated);
}

/// A shard's in-memory store that logs every value access as
/// `(shard, page)`. The engine touches each request's value as it serves
/// it, and the log is one mpsc across all stores (which never blocks, so
/// it adds no yield points), so the log's order is the global serve
/// order.
struct Recording {
    shard: usize,
    inner: SimStorage,
    log: mpsc::Sender<(usize, u32)>,
}

impl Storage for Recording {
    fn get(&mut self, page: u32, out: &mut Vec<u8>) -> Result<u8, StorageError> {
        let _ = self.log.send((self.shard, page));
        self.inner.get(page, out)
    }
    fn put(&mut self, page: u32, value: &[u8]) -> Result<(), StorageError> {
        let _ = self.log.send((self.shard, page));
        self.inner.put(page, value)
    }
    fn promote(&mut self, page: u32, level: u8) -> Result<(), StorageError> {
        self.inner.promote(page, level)
    }
    fn flush(&mut self, page: u32) -> Result<bool, StorageError> {
        self.inner.flush(page)
    }
    fn flush_all(&mut self) -> Result<u64, StorageError> {
        self.inner.flush_all()
    }
    fn snapshot(&self) -> StorageSnapshot {
        self.inner.snapshot()
    }
}

/// The shared side of one model event loop: its doorbell, and the queue
/// other loops push its connections' `(conn, seq)` replies onto.
struct ModelLoop {
    bell: Arc<ModelBell>,
    inbox: CompletionQueue<(u64, u64)>,
}

/// What the model loops share: the real router (and through it the
/// shard queues), every loop's doorbell and inbox, the count of loops
/// still serving connections (`Inner::serving_loops`), the shards'
/// stats, and the serve-order log.
struct World {
    router: Router,
    loops: Vec<ModelLoop>,
    serving: AtomicUsize,
    stats: Vec<Arc<ShardStats>>,
    log: mpsc::Sender<(usize, u32)>,
}

/// A 3-page instance every shard runs on.
fn tiny_instance() -> MlInstance {
    MlInstance::from_rows(2, (0..3).map(|p| vec![10 + p as u64]).collect()).expect("inst")
}

/// A [`World`] of `loops` model loops over `spec.shards` shards, and the
/// receiving end of its serve-order log.
fn world(spec: PartitionSpec, loops: usize) -> (Arc<World>, mpsc::Receiver<(usize, u32)>) {
    let stats: Vec<Arc<ShardStats>> = (0..spec.shards).map(|_| Arc::default()).collect();
    let (tx, rx) = mpsc::channel();
    let loops = (0..loops)
        .map(|_| {
            let bell = Arc::new(ModelBell::new(false));
            let inbox = CompletionQueue::new(Arc::clone(&bell) as Arc<dyn Doorbell>);
            ModelLoop { bell, inbox }
        })
        .collect::<Vec<_>>();
    let world = World {
        router: Router::new(spec, loops.len(), stats.clone()),
        serving: AtomicUsize::new(loops.len()),
        loops,
        stats,
        log: tx,
    };
    (Arc::new(world), rx)
}

/// A migrate plan over 2 shards that re-homes page 0 at its first epoch
/// boundary. After routing pages 2 and 0 (both hash-homed on shard 0),
/// `hot_k = 1` keeps page 0 as the one hot key (ties break toward the
/// smaller id) and page 2 stays background load on shard 0, so LPT moves
/// page 0 to shard 1 — halving the estimated max load, which the
/// adoption hysteresis accepts.
fn rehoming_spec() -> PartitionSpec {
    PartitionSpec {
        mode: PartitionMode::Migrate,
        shards: 2,
        detector_capacity: 4,
        hot_k: 1,
        epoch_len: 2,
        sample_every: 1,
    }
}

impl World {
    /// The shards loop `me` owns, each an lru policy on a [`Recording`]
    /// store, as `start` builds them before it spawns the loop.
    fn own_shards(&self, me: usize) -> LocalShards {
        let inst = tiny_instance();
        let mut shards = LocalShards::new(2);
        let queues = self.router.queues();
        for id in (0..queues.shards()).filter(|&s| queues.owner(s) == me) {
            let policy = wmlp_algos::PolicyRegistry::standard()
                .build("lru", &inst, 0)
                .expect("build lru");
            let store = Recording {
                shard: id,
                inner: SimStorage::new(inst.n(), inst.max_levels(), 8),
                log: self.log.clone(),
            };
            let stats = Arc::clone(&self.stats[id]);
            shards.add(id, inst.clone(), policy, Box::new(store), stats);
        }
        shards
    }

    /// Ring every loop but `me`.
    fn ring_others(&self, me: usize) {
        for (i, l) in self.loops.iter().enumerate() {
            if i != me {
                l.bell.ring();
            }
        }
    }

    /// Route `pages` from connection `conn` of loop `me`, as slots 0, 1,
    /// …, then ring each other loop that got work, once.
    fn route(&self, me: usize, conn: u64, pages: &[u32]) {
        let mut wake = vec![false; self.loops.len()];
        for (seq, &page) in pages.iter().enumerate() {
            let to = ConnAddr { lp: me, conn };
            self.router
                .dispatch(Request::top(page), None, seq as u64, to, &mut wake);
        }
        for (i, marked) in wake.into_iter().enumerate() {
            if marked && i != me {
                self.loops[i].bell.ring();
            }
        }
    }

    /// Drive loop `me` the way `run_io_loop` does, minus sockets: serve
    /// its shards, keep replies for its own connections, push the rest to
    /// their loops as one batch each, and count itself out once its
    /// connections have their `expected` replies. It exits once every
    /// loop has counted out and its shards are idle — or, with
    /// `wait_for_peers` off (the seeded mutant), as soon as its own
    /// connections are done. Returns its connections' `(conn, seq)`
    /// replies in arrival order.
    fn run_loop(
        &self,
        me: usize,
        mut shards: LocalShards,
        expected: usize,
        wait_for_peers: bool,
    ) -> Vec<(u64, u64)> {
        let queues = self.router.queues();
        let mut got = Vec::new();
        let mut served = Vec::new();
        let mut outbox: Vec<Vec<(u64, u64)>> = self.loops.iter().map(|_| Vec::new()).collect();
        let mut counted_out = false;
        loop {
            if shards.serve_pending(queues, &mut served) {
                self.ring_others(me);
            }
            for c in served.drain(..) {
                let reply = (c.to.conn, c.seq);
                if c.to.lp == me {
                    got.push(reply);
                } else {
                    outbox[c.to.lp].push(reply);
                }
            }
            for (l, batch) in self.loops.iter().zip(&mut outbox) {
                l.inbox.push_batch(batch);
            }
            self.loops[me].inbox.drain_into(&mut got);
            if !counted_out && got.len() == expected {
                counted_out = true;
                self.serving.fetch_sub(1, Ordering::SeqCst);
                self.ring_others(me);
            }
            let peers_done = !wait_for_peers || self.serving.load(Ordering::SeqCst) == 0;
            if counted_out && peers_done && shards.is_idle(queues) {
                break;
            }
            self.loops[me].bell.wait();
        }
        shards.flush_all();
        got
    }
}

/// Property 5 fixture: one shard, two loops. Loop 0 owns the shard and
/// has no connections left (it counts itself out at once); loop 1 owns
/// no shard, so its one request crosses to loop 0, and its reply comes
/// back over loop 1's completion queue. Returns loop 1's replies.
fn drained_owner_serves_a_peer(wait_for_peers: bool) -> Vec<(u64, u64)> {
    let (world, _log) = world(PartitionSpec::hash(1), 2);
    let w0 = Arc::clone(&world);
    let owner = spawn_named("io-0", move || {
        let shards = w0.own_shards(0);
        w0.run_loop(0, shards, 0, wait_for_peers)
    });
    world.route(1, 5, &[0]);
    let got = world.run_loop(1, world.own_shards(1), 1, wait_for_peers);
    assert!(owner.join().expect("join io-0").is_empty());
    got
}

/// Property 5: a loop whose own connections have drained keeps serving
/// until every loop has, so a peer's job queued on its shard is answered
/// in every schedule, and both loops exit.
#[test]
fn a_drained_loop_serves_a_peers_job_before_it_exits() {
    let report = explore(cfg(), || {
        let got = drained_owner_serves_a_peer(true);
        assert_eq!(got, vec![(5, 0)], "the crossing request answered once");
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

/// Property 5 (seeded mutant): a loop that stops serving as soon as its
/// own connections have drained. The checker must find the schedule
/// where it exits before the peer's job arrives, leaving the peer asleep
/// with nobody to serve it — reported as a deadlock.
#[test]
fn a_loop_that_exits_with_its_own_connections_is_caught() {
    let report = explore(cfg(), || {
        drained_owner_serves_a_peer(false);
    });
    assert!(
        report.failure.is_some(),
        "the early-exit mutant must strand the peer in some schedule"
    );
}

/// The shards page 0 was served on, in serve order.
fn page0_shards(log: mpsc::Receiver<(usize, u32)>) -> Vec<usize> {
    log.try_iter()
        .filter(|&(_, page)| page == 0)
        .map(|(shard, _)| shard)
        .collect()
}

/// Property 6 (correct protocol): loop 0 routes pages 2, 0, 0 from one
/// connection through the real [`Router::dispatch`]; the epoch boundary
/// before the third request re-homes page 0 from shard 0 (loop 0's) to
/// shard 1 (loop 1's). Dispatch only queues drain markers and returns;
/// loop 1 holds the re-homed request at the gate until loop 0 has served
/// shard 0 up to its marker. Page 0 is served in route order in *every*
/// schedule, and no schedule deadlocks.
#[test]
fn migration_drain_preserves_per_key_ordering() {
    let report = explore(cfg(), || {
        let (world, log) = world(rehoming_spec(), 2);
        let w1 = Arc::clone(&world);
        let peer = spawn_named("io-1", move || {
            let shards = w1.own_shards(1);
            w1.run_loop(1, shards, 0, true)
        });
        world.route(0, 0, &[2, 0, 0]);
        let mut got = world.run_loop(0, world.own_shards(0), 3, true);
        assert!(peer.join().expect("join io-1").is_empty());
        got.sort_unstable();
        assert_eq!(
            got,
            vec![(0, 0), (0, 1), (0, 2)],
            "each request answered once"
        );
        assert_eq!(
            world.stats[1].snapshot().requests,
            1,
            "the plan change re-homed page 0 onto shard 1"
        );
        assert_eq!(
            page0_shards(log),
            vec![0, 1],
            "page 0 must be served in route order across the re-homing"
        );
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

/// Property 6 (seeded mutant): a hand-rolled router that bumps the epoch
/// *without* draining — page 0 goes to shard 0 under the old plan, then
/// straight onto shard 1's queue under the new one, with no marker
/// between. Loop 1 can serve the re-homed request before loop 0 serves
/// the old-plan one; the checker must find that schedule.
#[test]
fn epoch_bump_without_drain_is_caught() {
    let report = explore(cfg(), || {
        let (world, log) = world(PartitionSpec::hash(2), 2);
        let w1 = Arc::clone(&world);
        let peer = spawn_named("io-1", move || {
            let shards = w1.own_shards(1);
            w1.run_loop(1, shards, 0, true)
        });
        let mut wake = [false; 2];
        for (seq, shard) in [0usize, 1].into_iter().enumerate() {
            world.stats[shard].note_enqueued();
            let job = ShardMsg::Job(ShardJob {
                req: Request::top(0),
                put: None,
                seq: seq as u64,
                reply: ReplyTo::Conn(ConnAddr { lp: 0, conn: 0 }),
            });
            world.router.queues().push(shard, job, &mut wake);
        }
        world.loops[1].bell.ring();
        world.run_loop(0, world.own_shards(0), 2, true);
        peer.join().expect("join io-1");
        assert_eq!(
            page0_shards(log),
            vec![0, 1],
            "page 0 reordered across the re-homing"
        );
    });
    assert!(
        report.failure.is_some(),
        "the undrained mutant must reorder page 0 in some schedule"
    );
}

/// Property 8: two loops, each owning one shard, route into each other's
/// shards. Loop 0 routes page 0 twice on connection 0, loop 1 page 2
/// (hash-homed on loop 0's shard) once on connection 1; whenever page 2
/// is routed before page 0's second request, the epoch boundary re-homes
/// page 0 onto loop 1's shard — a drain started by whichever loop routes
/// across the boundary, while the other may be contending for the router
/// lock or serving. No schedule deadlocks, every request is answered
/// exactly once to its own connection, and page 0's requests are served
/// in route order.
#[test]
fn two_loops_route_into_each_others_shards_without_deadlock_or_reordering() {
    // ~460 schedules at the default two preemptions; in ~70 of them the
    // plan change re-homes page 0 onto loop 1's shard.
    let report = explore(cfg(), || {
        let (world, log) = world(rehoming_spec(), 2);
        let w1 = Arc::clone(&world);
        let loop1 = spawn_named("io-1", move || {
            let shards = w1.own_shards(1);
            w1.route(1, 1, &[2]);
            w1.run_loop(1, shards, 1, true)
        });
        let shards = world.own_shards(0);
        world.route(0, 0, &[0, 0]);
        let mut conn0 = world.run_loop(0, shards, 2, true);
        let conn1 = loop1.join().expect("join io-1");
        conn0.sort_unstable();
        assert_eq!(conn0, vec![(0, 0), (0, 1)], "connection 0's replies");
        assert_eq!(conn1, vec![(1, 0)], "connection 1's reply");
        let page0 = page0_shards(log);
        assert_eq!(page0.len(), 2);
        assert_eq!(
            page0[0], 0,
            "page 0's second request served before its first"
        );
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

/// A model doorbell with `eventfd` counting semantics: each ring bumps a
/// counter, and a wait blocks until the counter is nonzero then consumes
/// it whole — exactly what `epoll_wait` + `EventFd::drain` do in the
/// production event loop. With `drop_notify` it becomes the seeded
/// mutant: the count is still published, but the sleeping consumer is
/// never woken — the dropped-notification bug the counting contract is
/// supposed to make impossible.
struct ModelBell {
    count: Mutex<u64>,
    ready: Condvar,
    drop_notify: bool,
}

impl ModelBell {
    fn new(drop_notify: bool) -> Self {
        ModelBell {
            count: Mutex::new(0),
            ready: Condvar::new(),
            drop_notify,
        }
    }

    /// Block until at least one ring has landed, then consume all of
    /// them — the model analogue of one `epoll_wait` wakeup followed by
    /// `EventFd::drain`.
    fn wait(&self) {
        let mut g = self.count.lock();
        while *g == 0 {
            g = self.ready.wait(g);
        }
        *g = 0;
    }
}

impl Doorbell for ModelBell {
    fn ring(&self) {
        let mut g = self.count.lock();
        *g += 1;
        if !self.drop_notify {
            self.ready.notify_one();
        }
    }
}

/// Property 7 (no lost wakeup): two peer loops push replies onto the
/// real [`CompletionQueue`] while the event loop waits on the model
/// bell. In every schedule the loop collects both completions — a ring
/// landing between the loop's drain and its next wait is accumulated by
/// the counter, never lost.
#[test]
fn eventfd_handshake_never_loses_a_wakeup() {
    let report = explore(cfg(), || {
        let bell = Arc::new(ModelBell::new(false));
        let q = Arc::new(CompletionQueue::<u64>::new(
            Arc::clone(&bell) as Arc<dyn Doorbell>
        ));
        let workers: Vec<_> = [0u64, 1]
            .into_iter()
            .map(|seq| {
                let q2 = Arc::clone(&q);
                spawn_named(format!("peer-{seq}"), move || q2.push_batch(&mut vec![seq]))
            })
            .collect();
        let mut got = Vec::new();
        while got.len() < 2 {
            bell.wait();
            q.drain_into(&mut got);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1], "every published completion surfaces");
        for w in workers {
            w.join().expect("join peer");
        }
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

/// Property 7 (concurrent close): a peer loop's reply races
/// `trigger_shutdown`'s ring. The loop keeps waiting until it has seen
/// *both* the shutdown flag and the in-flight completion — mirroring the
/// production loop, which only exits once its connections have drained.
/// No schedule strands the completion in the queue or wedges the loop.
#[test]
fn completion_racing_a_shutdown_ring_is_never_stranded() {
    let report = explore(cfg(), || {
        let bell = Arc::new(ModelBell::new(false));
        let q = Arc::new(CompletionQueue::<u64>::new(
            Arc::clone(&bell) as Arc<dyn Doorbell>
        ));
        let shutdown = Arc::new(AtomicBool::new(false));
        let q2 = Arc::clone(&q);
        let worker = spawn_named("peer-0", move || q2.push_batch(&mut vec![7]));
        let (b2, s2) = (Arc::clone(&bell), Arc::clone(&shutdown));
        let closer = spawn_named("closer", move || {
            // trigger_shutdown's discipline: publish the flag, then ring.
            s2.store(true, std::sync::atomic::Ordering::SeqCst);
            b2.ring();
        });
        let mut got = Vec::new();
        while !shutdown.load(std::sync::atomic::Ordering::SeqCst) || got.is_empty() {
            bell.wait();
            q.drain_into(&mut got);
        }
        assert_eq!(got, vec![7], "the in-flight completion survives the race");
        worker.join().expect("join peer");
        closer.join().expect("join closer");
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated);
}

/// Property 7 (seeded mutant): a bell that publishes its count but never
/// notifies. The checker must find the schedule where the loop parks on
/// the condvar *before* the peer rings — a consumer asleep with work
/// published and nobody left to wake it, reported as a deadlock.
#[test]
fn dropped_notify_mutant_is_caught() {
    let report = explore(cfg(), || {
        let bell = Arc::new(ModelBell::new(true));
        let q = Arc::new(CompletionQueue::<u64>::new(
            Arc::clone(&bell) as Arc<dyn Doorbell>
        ));
        let q2 = Arc::clone(&q);
        let worker = spawn_named("peer-0", move || q2.push_batch(&mut vec![0]));
        let mut got = Vec::new();
        while got.is_empty() {
            bell.wait();
            q.drain_into(&mut got);
        }
        worker.join().expect("join peer");
    });
    assert!(
        report.failure.is_some(),
        "the dropped-notify mutant must deadlock in some schedule"
    );
}

/// The explorer itself is deterministic on production code: the same
/// fixture and bounds give the same schedule and prune counts.
#[test]
fn exploration_of_production_code_is_deterministic() {
    let body = || {
        let (tx, rx) = spsc::channel::<u32>(1);
        let producer = spawn_named("producer", move || {
            for i in 0..2u32 {
                assert!(tx.send(i).is_ok());
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1]);
        producer.join().expect("join producer");
    };
    let r1 = explore(cfg(), body);
    let r2 = explore(cfg(), body);
    assert!(r1.failure.is_none(), "{}", r1.failure.unwrap());
    assert_eq!(
        (r1.schedules, r1.pruned, r1.truncated),
        (r2.schedules, r2.pruned, r2.truncated),
        "same bounds must reproduce the same exploration"
    );
}
