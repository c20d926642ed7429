//! Randomized soundness tests for the lock managers.
//!
//! The central safety invariant: however requests, callback replies and
//! releases interleave, the GLM never ends up with two clients holding
//! incompatible locks on the same resource. Action sequences are drawn
//! from the in-tree deterministic PRNG so every case replays from its
//! seed without an external property-testing crate.
//!
//! The driver also keeps its own model of the locks each client was
//! granted, built only from the outcomes and events the GLM returns, and
//! checks every client's page mode against the model's after each step.
//!
//! `glm_replays_the_pinned_state_machine` also pins the GLM's decisions:
//! each case folds every step's events and every client's holdings into a
//! hash, compared against pinned hashes.

use fgl_common::config::{LockGranularity, UpdatePolicy};
use fgl_common::rng::DetRng;
use fgl_common::{ClientId, ObjectId, PageId, SlotId, TxnId};
use fgl_locks::glm::{CallbackAction, CallbackKind, CallbackReply, GlmCore, GlmEvent, LockOutcome};
use fgl_locks::llm::LlmCore;
use fgl_locks::mode::{LockTarget, Mode, ObjMode};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write;

#[derive(Clone, Debug)]
enum Action {
    Lock {
        client: u32,
        page: u64,
        slot: u16,
        x: bool,
    },
    PageLock {
        client: u32,
        page: u64,
        x: bool,
    },
    AdaptiveLock {
        client: u32,
        page: u64,
        slot: u16,
        x: bool,
    },
    AnswerCallback {
        defer: bool,
    },
    CompleteDeferred,
    Release {
        client: u32,
        page: u64,
        slot: u16,
    },
}

/// The generator's dimensions: clients `1..=clients`, pages `0..pages`,
/// slots `0..slots`.
#[derive(Clone, Copy)]
struct Shape {
    clients: u32,
    pages: u64,
    slots: u16,
}

const SMALL: Shape = Shape {
    clients: 3,
    pages: 3,
    slots: 3,
};

const WIDE: Shape = Shape {
    clients: 8,
    pages: 3,
    slots: 16,
};

fn random_action(rng: &mut DetRng, shape: Shape) -> Action {
    let client = 1 + rng.gen_range(shape.clients as u64) as u32;
    let page = rng.gen_range(shape.pages);
    let slot = rng.gen_range(shape.slots as u64) as u16;
    let x = rng.chance(0.5);
    match rng.gen_range(6) {
        0 => Action::Lock {
            client,
            page,
            slot,
            x,
        },
        1 => Action::PageLock { client, page, x },
        2 => Action::AdaptiveLock {
            client,
            page,
            slot,
            x,
        },
        3 => Action::AnswerCallback { defer: x },
        4 => Action::CompleteDeferred,
        _ => Action::Release { client, page, slot },
    }
}

fn random_actions(rng: &mut DetRng, shape: Shape, max_len: usize) -> Vec<Action> {
    let len = rng.range_usize(1, max_len);
    (0..len).map(|_| random_action(rng, shape)).collect()
}

fn obj_mode(x: bool) -> ObjMode {
    if x {
        ObjMode::X
    } else {
        ObjMode::S
    }
}

type PageHolder = (ClientId, Option<Mode>, Vec<(SlotId, ObjMode)>);

/// One client's locks on one page as the GLM's outcomes and events
/// granted them.
#[derive(Default)]
struct Granted {
    page: Option<ObjMode>,
    objects: BTreeMap<SlotId, ObjMode>,
}

impl Granted {
    /// The page mode these locks occupy: the page lock's mode, lub IX if
    /// any object is X, else IS if any object is held.
    fn mode(&self) -> Option<Mode> {
        let intent = self.objects.values().max().map(|m| m.intent());
        match (self.page.map(ObjMode::as_page_mode), intent) {
            (Some(p), Some(i)) => Some(p.lub(i)),
            (p, i) => p.or(i),
        }
    }
}

/// The driver's model of every client's granted locks, by (client, page).
type Model = BTreeMap<(ClientId, PageId), Granted>;

/// Check the no-incompatible-holders invariant over every page/slot, that
/// `client_has_exclusive_on_page` agrees with the holdings, and that every
/// client's locks are the ones the model saw granted.
fn assert_sound(glm: &GlmCore, shape: Shape, model: &Model) {
    for p in 0..shape.pages {
        let page = PageId(p);
        let holders: Vec<PageHolder> = (1..=shape.clients)
            .map(|c| {
                let (pm, objs) = glm.client_locks_on_page(ClientId(c), page);
                (ClientId(c), pm, objs)
            })
            .collect();
        for (c, pm, objs) in &holders {
            let granted = model.get(&(*c, page));
            assert_eq!(
                (*pm, objs.clone()),
                granted.map_or((None, vec![]), |g| {
                    (g.mode(), g.objects.iter().map(|(s, m)| (*s, *m)).collect())
                }),
                "{c:?} {page}: the GLM's locks against the model's"
            );
            let x = *pm == Some(Mode::X) || objs.iter().any(|(_, m)| *m == ObjMode::X);
            assert_eq!(
                glm.client_has_exclusive_on_page(*c, page),
                x,
                "{c:?} {page}"
            );
        }
        // Page-level: real locks must be mutually compatible.
        for (i, a) in holders.iter().enumerate() {
            for b in holders.iter().skip(i + 1) {
                if let (Some(ma), Some(mb)) = (a.1, b.1) {
                    assert!(
                        ma.compatible(mb),
                        "page {page}: {:?}@{ma:?} vs {:?}@{mb:?}",
                        a.0,
                        b.0
                    );
                }
            }
        }
        // Object-level: no two incompatible holders per slot.
        for s in 0..shape.slots {
            let slot = SlotId(s);
            let ms: Vec<(ClientId, ObjMode)> = holders
                .iter()
                .flat_map(|(c, _, objs)| {
                    objs.iter()
                        .filter(|(sl, _)| *sl == slot)
                        .map(move |(_, m)| (*c, *m))
                })
                .collect();
            for (i, (ca, ma)) in ms.iter().enumerate() {
                for (cb, mb) in ms.iter().skip(i + 1) {
                    assert!(
                        ma.compatible(*mb),
                        "{page}.{slot:?}: {ca:?}@{ma:?} vs {cb:?}@{mb:?}"
                    );
                }
            }
        }
    }
}

/// Sort a batch of events by their debug text: the order within one
/// batch is not part of the GLM's contract (it followed hash-table
/// iteration order before the per-page tables were sorted vectors).
fn sorted<T: std::fmt::Debug>(mut v: Vec<T>) -> Vec<T> {
    v.sort_by_cached_key(|e| format!("{e:?}"));
    v
}

/// FNV-1a: a hash that, unlike std's `DefaultHasher`, is fixed across
/// Rust releases, so pinned values stay valid.
fn fnv(mut h: u64, text: &str) -> u64 {
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Plays actions against a GLM the way clients would: a callback waits
/// until an `AnswerCallback` answers it (oldest first), a deferred one
/// until a `CompleteDeferred`. Every step folds its outcome, its sorted
/// events and every client's holdings on every page into `hash`. Every
/// call into the GLM goes through a method here that also updates `model`.
/// Like the server, it sends a crashed client nothing until it recovers:
/// callbacks addressed to it are neither queued nor hashed.
struct Driver {
    glm: GlmCore,
    shape: Shape,
    model: Model,
    crashed: BTreeSet<ClientId>,
    pending: VecDeque<CallbackAction>,
    deferred: VecDeque<CallbackAction>,
    txn_seq: u32,
    hash: u64,
}

impl Driver {
    fn new(shape: Shape) -> Self {
        Driver {
            glm: GlmCore::new(),
            shape,
            model: Model::new(),
            crashed: BTreeSet::new(),
            pending: VecDeque::new(),
            deferred: VecDeque::new(),
            txn_seq: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Request a lock for a fresh transaction; the immediate outcome and
    /// the effective target go into the hash too.
    fn lock(&mut self, client: u32, target: LockTarget) -> Vec<GlmEvent> {
        self.txn_seq += 1;
        let client = ClientId(client);
        let (outcome, effective, ev) =
            self.glm
                .lock(client, TxnId::compose(client, self.txn_seq), target);
        self.hash = fnv(self.hash, &format!("{outcome:?}{effective:?}"));
        if let LockOutcome::Granted { .. } = outcome {
            self.grant(client, effective);
        }
        self.see(ev)
    }

    fn granted(&mut self, client: ClientId, page: PageId) -> &mut Granted {
        self.model.entry((client, page)).or_default()
    }

    fn grant(&mut self, client: ClientId, target: LockTarget) {
        let g = self.granted(client, target.page());
        match target {
            LockTarget::Object(o, m) => {
                let held = g.objects.entry(o.slot).or_insert(m);
                *held = m.max(*held);
            }
            LockTarget::Page(_, m) | LockTarget::PageAdaptive(_, m, _) => {
                g.page = g.page.max(Some(m))
            }
        }
    }

    /// Apply the grants among `events` to the model.
    fn see(&mut self, events: Vec<GlmEvent>) -> Vec<GlmEvent> {
        for e in &events {
            if let GlmEvent::Grant { client, target, .. } = e {
                self.grant(*client, *target);
            }
        }
        events
    }

    fn step(&mut self, action: &Action) {
        let events = match *action {
            Action::Lock {
                client,
                page,
                slot,
                x,
            } => {
                let o = ObjectId::new(PageId(page), SlotId(slot));
                self.lock(client, LockTarget::Object(o, obj_mode(x)))
            }
            Action::PageLock { client, page, x } => {
                self.lock(client, LockTarget::Page(PageId(page), obj_mode(x)))
            }
            Action::AdaptiveLock {
                client,
                page,
                slot,
                x,
            } => {
                let o = ObjectId::new(PageId(page), SlotId(slot));
                self.lock(
                    client,
                    LockTarget::PageAdaptive(PageId(page), obj_mode(x), o),
                )
            }
            Action::AnswerCallback { defer } => match self.pending.pop_front() {
                Some(cb) if defer => {
                    self.deferred.push_back(cb);
                    let blockers = vec![TxnId::compose(cb.to, 9999)];
                    let ev = self.glm.callback_reply(
                        cb.to,
                        cb.kind,
                        CallbackReply::Deferred { blockers },
                    );
                    self.see(ev)
                }
                Some(cb) => self.done(cb),
                None => Vec::new(),
            },
            Action::CompleteDeferred => match self.deferred.pop_front() {
                Some(cb) => self.done(cb),
                None => Vec::new(),
            },
            Action::Release { client, page, slot } => {
                let (client, page, slot) = (ClientId(client), PageId(page), SlotId(slot));
                self.granted(client, page).objects.remove(&slot);
                let ev = self.glm.release_object(client, ObjectId::new(page, slot));
                self.see(ev)
            }
        };
        self.absorb(events, "");
    }

    /// Answer a callback `Done`, retaining nothing.
    fn done(&mut self, cb: CallbackAction) -> Vec<GlmEvent> {
        let g = self.granted(cb.to, cb.kind.page());
        match cb.kind {
            CallbackKind::ReleaseObject(o) => {
                g.objects.remove(&o.slot);
            }
            CallbackKind::DowngradeObject(o) => {
                if let Some(m) = g.objects.get_mut(&o.slot) {
                    *m = ObjMode::S;
                }
            }
            CallbackKind::ReleasePage(_) => *g = Granted::default(),
            CallbackKind::DowngradePage(_) => g.page = g.page.map(|_| ObjMode::S),
            CallbackKind::DeEscalatePage(_) => g.page = None,
        }
        let ev = self
            .glm
            .callback_reply(cb.to, cb.kind, CallbackReply::Done { retained: vec![] });
        self.see(ev)
    }

    /// Crash a client: it keeps only its exclusive locks (§3.3).
    fn crash(&mut self, victim: ClientId) -> Vec<GlmEvent> {
        for ((c, _), g) in self.model.iter_mut() {
            if *c == victim {
                g.page = g.page.filter(|m| *m == ObjMode::X);
                g.objects.retain(|_, m| *m == ObjMode::X);
            }
        }
        self.crashed.insert(victim);
        let ev = self.glm.crash_client(victim);
        self.see(ev)
    }

    fn release_all(&mut self, client: ClientId) -> Vec<GlmEvent> {
        self.model.retain(|(c, _), _| *c != client);
        let ev = self.glm.release_all(client);
        self.see(ev)
    }

    /// Queue the callbacks among `events` that a live client receives,
    /// check soundness and fold the step (plus `extra` text) into the hash.
    fn absorb(&mut self, mut events: Vec<GlmEvent>, extra: &str) {
        let crashed = &self.crashed;
        events.retain(|e| !matches!(e, GlmEvent::SendCallback(cb) if crashed.contains(&cb.to)));
        let events = sorted(events);
        for e in &events {
            if let GlmEvent::SendCallback(cb) = e {
                self.pending.push_back(*cb);
            }
        }
        assert_sound(&self.glm, self.shape, &self.model);
        let mut text = format!("{events:?}{extra}");
        for c in 1..=self.shape.clients {
            for p in 0..self.shape.pages {
                let (client, page) = (ClientId(c), PageId(p));
                let (pm, objs) = self.glm.client_locks_on_page(client, page);
                let x = self.glm.client_has_exclusive_on_page(client, page);
                let _ = write!(text, "|{c}:{p}:{pm:?}{objs:?}{x}");
            }
        }
        let _ = write!(text, "|{}", self.glm.tracked_pages());
        self.hash = fnv(self.hash, &text);
    }

    /// End a case: crash one client, recover it, then release another
    /// client's every lock, folding each outcome into the hash.
    fn finish(&mut self, rng: &mut DetRng) -> u64 {
        let victim = ClientId(1 + rng.gen_range(self.shape.clients as u64) as u32);
        let x_before = self.glm.exclusive_locks(victim);
        let events = self.crash(victim);
        let x_after = self.glm.exclusive_locks(victim);
        // A crash keeps exactly the exclusive locks, and grants the
        // crashed client nothing.
        assert_eq!(x_before, x_after);
        let owed = sorted(self.glm.pending_callbacks_for(victim));
        self.absorb(events, &format!("{:?}{owed:?}", sorted(x_after)));
        self.crashed.remove(&victim);
        let other = ClientId(1 + rng.gen_range(self.shape.clients as u64) as u32);
        let events = self.release_all(other);
        self.absorb(events, "");
        self.hash
    }
}

/// Replay one generated case, asserting soundness after every step;
/// returns the case's hash.
fn replay(seed: u64, shape: Shape, max_len: usize) -> u64 {
    let mut rng = DetRng::new(seed);
    let mut d = Driver::new(shape);
    for action in random_actions(&mut rng, shape, max_len) {
        d.step(&action);
    }
    d.finish(&mut rng)
}

/// Soundness under arbitrary interleavings: clients fire requests,
/// answer callbacks immediately or deferred, complete deferrals, and
/// release locks — the lock table never admits a conflict.
#[test]
fn glm_never_grants_conflicting_locks() {
    for case in 0..512u64 {
        replay(0x6133_5EED ^ case, SMALL, 80);
    }
}

/// The same soundness checks with 8 clients on 16 slots per page.
#[test]
#[ignore = "soak: 20 000 wide cases, run with --release -- --ignored"]
fn wide_tables_stay_sound_soak() {
    for case in 0..20_000u64 {
        replay(0x51DE_0000_0000 ^ case, WIDE, 160);
    }
}

/// The GLM's decisions are pinned: 512 cases replay to pinned hashes.
/// They were last re-pinned when the page mode became derived from the
/// granted locks and a crash began cancelling in one pass; each of the
/// 119 cases that changed then had a SIX holder losing its S, or a crash
/// re-evaluating a page while a waiter of the crashed client was still
/// queued. On a deliberate behaviour change, re-pin from the `got` list
/// below.
#[test]
fn glm_replays_the_pinned_state_machine() {
    let got: Vec<u64> = (0..512u64)
        .map(|case| replay(0xD1FF_5EED ^ (case << 8), SMALL, 80))
        .collect();
    let diverged: Vec<usize> = (0..got.len()).filter(|&i| got[i] != PINNED[i]).collect();
    assert!(
        diverged.is_empty(),
        "cases {diverged:?} diverge from the pinned state machine; got {got:#018x?}"
    );
}

/// Crash handling: after a client crash its shared locks are gone,
/// its exclusive locks remain, and the table stays sound.
#[test]
fn crash_preserves_soundness() {
    for case in 0..512u64 {
        let mut rng = DetRng::new(0x00C4_A511 ^ (case << 4));
        let actions = random_actions(&mut rng, SMALL, 40);
        let victim = 1 + rng.gen_range(3) as u32;
        let mut d = Driver::new(SMALL);
        for action in actions {
            if let Action::Lock { .. } = action {
                d.step(&action);
                // Answer every callback immediately so locks actually move.
                while let Some(cb) = d.pending.pop_front() {
                    d.done(cb);
                }
            }
        }
        let x_before = d.glm.exclusive_locks(ClientId(victim));
        d.crash(ClientId(victim));
        let glm = &d.glm;
        assert_sound(glm, SMALL, &d.model);
        // Exclusive locks survived the crash.
        assert_eq!(glm.exclusive_locks(ClientId(victim)), x_before);
        // No shared object locks remain for the victim.
        for p in 0..3u64 {
            let (pm, objs) = glm.client_locks_on_page(ClientId(victim), PageId(p));
            assert!(!matches!(pm, Some(Mode::S) | Some(Mode::IS)));
            assert!(objs.iter().all(|(_, m)| *m == ObjMode::X));
        }
    }
}

/// The LLM's per-page index of object locks answers `holds_any_on_page`
/// exactly as a scan of every cached lock would, through grants, every
/// callback kind (immediate or completed at transaction end),
/// `reinstall_exclusive` and `clear`.
#[test]
fn llm_page_index_matches_a_scan_of_cached_locks() {
    let pages = 4u64;
    for case in 0..512u64 {
        let mut rng = DetRng::new(0x11A0_1DE7 ^ (case << 8));
        let granularity = [
            LockGranularity::Object,
            LockGranularity::Page,
            LockGranularity::Adaptive,
        ][case as usize % 3];
        let mut llm = LlmCore::new(granularity, UpdatePolicy::MergeCopies);
        for _ in 0..rng.range_usize(1, 80) {
            let page = PageId(rng.gen_range(pages));
            let o = ObjectId::new(page, SlotId(rng.gen_range(4) as u16));
            let mode = obj_mode(rng.chance(0.5));
            let txn = TxnId::compose(ClientId(1), 1 + rng.gen_range(3) as u32);
            match rng.gen_range(11) {
                0 | 1 => llm.global_granted(txn, o, mode, LockTarget::Object(o, mode)),
                2 => llm.global_granted(txn, o, mode, LockTarget::Page(page, mode)),
                3 => {
                    llm.acquire(txn, o, mode, false);
                }
                4 => {
                    llm.handle_callback(CallbackKind::ReleaseObject(o));
                }
                5 => {
                    llm.handle_callback(CallbackKind::DowngradeObject(o));
                }
                6 => {
                    llm.handle_callback(CallbackKind::ReleasePage(page));
                }
                7 => {
                    llm.handle_callback(CallbackKind::DeEscalatePage(page));
                }
                8 => {
                    llm.end_txn(txn);
                }
                9 => llm.reinstall_exclusive(&[
                    LockTarget::Object(o, ObjMode::X),
                    LockTarget::Page(PageId(rng.gen_range(pages)), ObjMode::X),
                ]),
                _ if rng.chance(0.2) => llm.clear(),
                _ => {
                    llm.handle_callback(CallbackKind::DowngradePage(page));
                }
            }
            let locks = llm.all_locks();
            for p in 0..pages {
                let scan = locks.iter().any(|t| t.page() == PageId(p));
                assert_eq!(llm.holds_any_on_page(PageId(p)), scan, "case {case} P{p}");
            }
        }
    }
}

/// `glm_replays_the_pinned_state_machine`'s hashes, case by case.
#[rustfmt::skip]
const PINNED: [u64; 512] = [
    0x427b081e32e5b774, 0xc79c88eeb447ce0f, 0x52ead8ad0c1c4283, 0xc24beae208987809, 0x78839994d52fcc0d,
    0x994fa27e110d78b4, 0xa70e73b71fad667d, 0xd381df2d55e11c01, 0xb8ec4d840d9b6d85, 0x703c1ded0864a52d,
    0x4eaea0bfa2549f52, 0x053ab63f2d2d0c6b, 0x6e00394af8e83fe9, 0x8dea531406b158b6, 0xe150e368578566db,
    0x12302678e5992c54, 0x769836cd68f1c2c5, 0xf4f521eb0a9cc315, 0x3f8d6cfc950226f8, 0xcfcfb061ab47d6ce,
    0x253783a77c402624, 0xbc8f322ce1a081b6, 0x5966c3e091cea98a, 0xf0a2c5af6061572d, 0x81bcc7b19d6ac6b6,
    0x6d7ba9ca2611de4f, 0x1b533a4a0f6259d4, 0x01bba10fab846c9b, 0x42d32d9c76a1c9b8, 0x58116e1cc692f944,
    0x21d6d773feb2d714, 0xcb9ef02502ddbd57, 0x465304c457cabb8d, 0xe0acae986407c3a7, 0x78b0cf775c9d9207,
    0xc0560b3673aaf24c, 0x24673ff49e48477a, 0x4e523c5e5a0592c1, 0x00a09351b7467fbf, 0x04cbc1279021309a,
    0xb1645fea6214c2af, 0x7f7e3d9cd4767139, 0x46f3e6d6776eedee, 0x1f8939a2e47777a3, 0x16059fa182c3cdd0,
    0x5cf20822dab83f5b, 0xc3c3749a667c6d9f, 0x97d1204e71d2f428, 0xee5f370eea13699b, 0x9c600c2d33ca9af7,
    0x1981cc89594c1266, 0x155b50583daecfc6, 0x5c4e83f40b56ca4b, 0x0ad8a7b6b9de0fcb, 0x83b177a81444fd4e,
    0xc2dbb27b2f6fc8ac, 0x5d8ccd3ed16c5c7a, 0x4066e2ac78868057, 0xeeb271110ac1ffb7, 0x3db2ff5e0f5c56ed,
    0x66479a58e39a0a4a, 0xf278ea2e82afbdaf, 0x5855aa799d3e3f10, 0x5a5ab5487834b428, 0xda0b5f897deb36d4,
    0xc5d59d2c96f3ec76, 0xbe778cca05b58325, 0x56155f13410f2f2a, 0x81e2b48b70b531d0, 0xe75621a981085533,
    0xa4a6cd0fcbe302be, 0x1c8cabd704fb9f6a, 0xa9af204bef3db809, 0x2224ac3ffd3f2c29, 0xf39d883181ea935f,
    0x62e4263a865d7ad1, 0x42a55d6b9689d2fe, 0xbb80326413886d33, 0x39336040d69b49cd, 0x156f2f55506c147b,
    0x7ecbc420e998830b, 0x005e23c4df5389f7, 0xfff6a82bcfe6984c, 0x5ba5ef04fbb132ea, 0xc9d8da54cb1f37fb,
    0x46b2b01246d375ef, 0x7bbac3dc59012123, 0xf04969dd234488f6, 0x877c9aa6469319d3, 0xdb9ccdd4ca928e03,
    0x7fe26102bd7306c3, 0x001eddde3d24a16b, 0x66e0b60d8bf5cc10, 0x54c78e043e73206b, 0x2f8680dd3b458025,
    0x3cbea773bc8bcec4, 0x45cf0ae8c9041c08, 0xc514bbbda3d90ef3, 0xa339d1c20f6ba6d4, 0xdc22f3a474cdc4df,
    0x17c86d43f7115b3d, 0x1ebf2c4687aef947, 0xadf34ee4114cbb2c, 0x9ee8af71fea1fde4, 0xd098682d99f8c24a,
    0x138fdc81f625d122, 0x42cb27a672a2b571, 0xc32756b814e4b085, 0xbc23cca7825056cc, 0x26c23f9671534658,
    0x685da9ac2813f053, 0xc75e01e25f14ca58, 0xa5260444a492aac0, 0x9708b78e993d7e09, 0x6879bb622e18c0ea,
    0x1418638fcac505ae, 0x8372b225d668a52c, 0xff1a61ac7229c889, 0xea9fa02825acff91, 0x571ce89e968f650c,
    0x78b0b276cef80d70, 0x4721239bdea11327, 0xc3c543332e3547b8, 0x95dec1e783699355, 0x1893900ba1a16a16,
    0x849264583901ca1f, 0xa8198c20438a4d6f, 0x320abf276a8c9f3a, 0x1d77e56659e00675, 0x48a4f1da59052e45,
    0x702fd296740e1ce6, 0xc6a23d2c08b68bad, 0xc542d2b4fd2d733c, 0x29b0dc9a8c5ce0d1, 0x3350863c5fc29a4f,
    0xedef945b94f397e6, 0x4bdae84b0787cadb, 0x336d57aea817f6c4, 0x970b6e262f8b35a9, 0xe617a8fda45c6ac8,
    0x150609a550528124, 0xc059de2d89ba94d6, 0xcda39b02f2408c66, 0x78271eff811bc188, 0xc0cc35dd36c3d35c,
    0x191cb023c0f8c780, 0xcdc963d5cd9ea596, 0x2c0d25bc068f40df, 0x73019d077dcf25a6, 0x620347a48c81caf4,
    0xe1972a5f3aadc978, 0x85543f2aac563b0e, 0xc0588207630578b7, 0xd275aca16abeb1cb, 0x090d838301141475,
    0x76d516688a9d394b, 0xbd92fa937a135a1a, 0x6d22d7a9c24cf51a, 0x324d86fe9d2c9cc3, 0xd39e38959f095b45,
    0x09559559be570185, 0xb6416d21f62d05e3, 0x954db69e4262d392, 0xb435b43474b73070, 0xabf9b0790c363c08,
    0xe235cf5eee7d19f3, 0x441d098d9808b533, 0xdf565bcf1f27c6f4, 0x29494fe64a75f6ce, 0x69542d8f00fd2e3c,
    0xd5648aed564da51a, 0x11a587a662db2e97, 0xd61a85183137243f, 0x46754c1f76747984, 0x429b1f1a8a6e7b99,
    0xb1753fcfe1fb112b, 0xc257faa4880ad8b0, 0x0788ce0205978499, 0xa9a2c975dbc8f740, 0x1d02997a57ef8678,
    0x7504685bc2e7110f, 0xf91f9c1f434b9fdd, 0xa585276114579df0, 0x5968e34f28aedf40, 0x57379c0549eb0737,
    0xdb173cf884bac0af, 0x0516f43444c3010f, 0x1b5e7e0e691542f3, 0xe6d89b1b35d398aa, 0xb19a2ff81d8ed9e9,
    0xdc98e358409fc267, 0x706ac6d73dfc1ea3, 0xefe408a0974495e0, 0x9590391ed474762d, 0x264400ff1506b967,
    0xd154d05b4f7141f2, 0x29be842114ec12e7, 0xe10cb39276d04406, 0xf030524fdbe78bc7, 0x2141f22c1c8888cc,
    0x62e8f1436deb1bb4, 0x9a6bf49270dbe694, 0x6405a0f9fa8d39c8, 0x132b1ec73d58ae86, 0x4a64191640211644,
    0xe981a60a347b9e0a, 0xea1ce5f912bf441c, 0x76d95d0ce8a561f6, 0xab83723817f27589, 0x466120d902e3d733,
    0x72adc31b620bceda, 0x3e427182d45553ea, 0xbf314fefc216aabf, 0x89d2f79bd773b7ae, 0xfc397dc5d5b56e0a,
    0x108797c2040a357d, 0xf6724b8176b8675d, 0xab2b4ebaa5d55be1, 0x2a3db8e37d6d03f2, 0xf82365e74b9dd342,
    0x6715a401f8d0f252, 0xd05ba41d1223f83f, 0xec5efe38ba50db42, 0xbb0f7e9631be85c2, 0xc95c9648b1c7530b,
    0x6471c5e949a4e193, 0x2ce68f54f3fe2c83, 0x36257e9193068e7f, 0x366f184a17e9c22a, 0x7386f89220f3ea94,
    0xe6f51ff00e33c8b7, 0x6c845e46e4ebf262, 0x104ed9ae655f0757, 0xef07fe46e4c751db, 0x9f5a1169d6d8da94,
    0x7e4590e9c8b64212, 0xff980078a066b308, 0x5e301499d3c1d3a7, 0x82749df1d8ff289a, 0x2c5024e490960737,
    0x83b0a9a8525a9cf5, 0x4fceb59947e580a0, 0xd7f0f66d87b438a7, 0x284c0d5d6c363ada, 0x0aa495a95275b78b,
    0x7bb82d0e02a23835, 0x9b696bd0bfcf420e, 0x6f718c9ce5cd583d, 0xb0245f117837550b, 0xb075dfab4feb6069,
    0xef7001c4c86f899a, 0x94d803fff9887be4, 0x7b032470ed83096c, 0x9d2200e4e9ef0c04, 0x6c2725b5d188ec0a,
    0x148508e05f2eee52, 0xdfce074dfae403f6, 0x3f32ee09dd5d86ee, 0xab2b4ebaa5d55be1, 0xd8f8112698b43484,
    0x1b4005eddd6fb471, 0x25324383b53ababf, 0x0b48b7e7437516f6, 0x735d85dc39c91134, 0xb4cd42f699479ec4,
    0xfb8384bd849ae4d5, 0x6a683d4550643723, 0x415cb33952635be0, 0x25ae249774930751, 0xfef763b484b022df,
    0xb52b70a9fb9b057d, 0xfeef86b1d452a5d0, 0x3f74d8c050762ea6, 0x685d614e878a87e8, 0x2e8e45a0529d03a8,
    0x1d89f6bb0c473901, 0x5a866fb1fe325df6, 0xfa0e6a44b6445842, 0x18edd436e0210a96, 0xe9d6a5412d713667,
    0x401d1f1096a4d4ec, 0xb4ed8b1204f97a3e, 0x7aba55088c67f92c, 0xa02705d021f50ffe, 0x2fc5cd94bffd25b0,
    0x8a301db74028fb94, 0x856b6ef56d413718, 0x351d23ecaad2cf5d, 0x4fbe94b9fe1adf87, 0xc279f37d40f527b1,
    0x002a81dc45f7c43c, 0xe41d771a0b70b7de, 0x03a1d38190143b84, 0x17b77ea7ca1b8517, 0xd1be841bda05eff2,
    0x09b6efac587287a7, 0x26f5d6c947a8a5cb, 0xa4b7793d8fe0fb8b, 0x027bcbbc7ee5fda8, 0xbede70849b343af7,
    0x20b643095ab87448, 0xc950e1c6de0d8b6a, 0x653c24562c894009, 0x521e3f66ccb1144b, 0x09393f3072d569bc,
    0x1acf44e9fc55fdae, 0x743603d1b7244965, 0x7d903af32f12dfff, 0x1596acdb9200986a, 0x29c82231f7cf8386,
    0x1f18aac2e554e46c, 0xf594d36d3dca8241, 0x2517fbbcf62ebcf7, 0x3c29196f6b78b2b4, 0x863fcd13197fcaf7,
    0xf91b27f308624d36, 0x3505750a6b297183, 0x0e72e050b3832fe0, 0x68d18e6fe98899aa, 0x601832cef5d727ff,
    0x301d9b43cd8e3a0b, 0xb66eb924a2b31cb0, 0x55c3e4b5916e037c, 0x5fcbff451c808682, 0x7f8b20c9fe43773e,
    0xd1a03cc427535235, 0x8495b2e36a734cb3, 0x59034224bb16e083, 0x8ce107cc50e9c130, 0x5a7debffbd72bf72,
    0x47c3c705a6497404, 0xe3c402cb41d3af39, 0x86dd30784b510066, 0x70dde001f22e4c2b, 0xda7a482a54a1f5a2,
    0x1f31da876d1179b3, 0x3728ba2b92201299, 0x0956de1178b51836, 0xd48507c3ee984614, 0x49af8695c89e491d,
    0x44350430e6b99852, 0xbed3c49f3405f592, 0xdf646e80130f0893, 0x1c6e389cae73227b, 0x799686bace92a251,
    0xd947ddbeb6dacd6e, 0x995a3649967155b6, 0x13ca7122a71ab07a, 0xab2b4ebaa5d55be1, 0xbb6a324fd2935c05,
    0x5d255fd2918910d4, 0xf38c2e80023e797b, 0xaefc29bca2780a6e, 0x3a923263f80b5eb9, 0x6e839934f11f847d,
    0xd83eff125558c8dd, 0xab2b4ebaa5d55be1, 0x225bf2e57da7eac5, 0xf592a72952cf2e6c, 0x5337061f7c9f9824,
    0x8eb524671ba93da6, 0x651b5082a771b665, 0xbae6d625973ac753, 0x8dac236c74561805, 0x0a7c2453177d5668,
    0xac4f4861eda78a56, 0x2f59ba6a6406cdb7, 0x8f4cdce6db1d3dcc, 0xf3264bef25ed9e02, 0x0cf74ae00dbe0cc2,
    0x71e89662f71d51ff, 0xafe3537ec9d40bf1, 0x3c3a5714fbf28b35, 0x30fc9f9daea06c5f, 0x3cb5c0f8d92b44b3,
    0xe4f5a81ccc87ed0d, 0x97a8f83aeefbe8d6, 0xd9fecaa8d1229b1d, 0x06b786b760e70708, 0xf40aa191784cb772,
    0x1fc4d89eb5a3229e, 0x5cf644195e117ca6, 0xb84065332f16726c, 0x5f10ea2065a13436, 0x5d0e3c2356030df3,
    0x1a992baecb579340, 0x4f025a9355d561ad, 0x17a951348e2e7cc7, 0xd25516bddc6f146f, 0x3d3364732ff8ebcf,
    0xe98c8a5123082db4, 0x6caa3de74df5916e, 0x0136db0eefcaf769, 0x65692e7083bede59, 0xf0147003fcae3a77,
    0xdfbbd173ff253642, 0xfc9eeb8fab48bc6f, 0x72be16a8f46bdad1, 0x5b2adef10b96afe5, 0x3d84b063c36c9545,
    0xc68747fad875cac8, 0xfc3d32ded364b419, 0xc8ac9dd4ca1afea6, 0xdf755a26ca81e2af, 0x3f9f028ccde54ccc,
    0x6903a0e8f2951de1, 0x1c9237cedcecd496, 0x64014be1dedef47a, 0x428680bcf15f442c, 0xab2b4ebaa5d55be1,
    0x3e80fdaf5c9d9605, 0xc1b94c356545f1a8, 0x9bc2bb1b9de1f669, 0x073474a8666605ed, 0x8b449f736b3cd41c,
    0x8ca54e5ee7ccb0c8, 0xbb6509416465f5aa, 0xd5d1f4f649c42293, 0xd3a442b3fc81d32d, 0x1a3967365ad7ba22,
    0x29818526fbc1d264, 0xc6e5195ff68fe3c8, 0x065cf46cbbb19429, 0x10b89a62cb06bbdc, 0x88c5188d0bd61a24,
    0xcb36e068fb9c168b, 0xe156a55a0780c192, 0x3629264e56830cd4, 0xdfc1d140154ca935, 0xcff084e6ac5d0a28,
    0xadb2ad9fbd2a440f, 0x184ad0479aa3c2d3, 0x9801755501ebe83d, 0x68ae8463a9341a9e, 0x5b80d5d43eaf1cd5,
    0x02d45397677d320d, 0xb43a1a4742f1bfb4, 0xf3500b5e4e71b475, 0x7d4fdd085b1a1c66, 0xa3211c24d3a52f4c,
    0x80685da21280619b, 0x4ef8ffba208b9d04, 0x567c9e75d842a2ce, 0xcf01d6fd8a2ac820, 0xd3f66095adbd7c3c,
    0x49047411bd67fd9e, 0x5691df3e2e945d25, 0xcca9e2919fa48c00, 0x654220404cdef34d, 0x6657aa521949f9b7,
    0xe019e7fd98b7fd25, 0xfd653689a9471db2, 0xfd2b25a61e65ce26, 0xa1dfd51b24cf517a, 0x0e112cede2913a23,
    0x33effe0c4bfdbe23, 0x9f998c0ac49de797, 0x8941885227f31efb, 0x7de1507ddd8d9aa9, 0x522a03ea1ea9e897,
    0x13d2fc68328144d4, 0x03ea23bc033ebf6d, 0x1dedb702826784a5, 0xe2188e35b48813f5, 0xa4edfc78170dc267,
    0xe240680f0663c86f, 0xbd31ea1d9711563e, 0x9017e32662d6dd17, 0xafc01bf7906b4a57, 0xefedd7a818547fbf,
    0xcbedbdc5dadf0693, 0x12298e88ac234f55, 0x340ad6ac359f0d30, 0x83873f7bd1141a39, 0xede2cfa83abaac26,
    0x79e06cb5b67b18ee, 0xd7f56cd1f94626ec, 0xf949d116c6f6bce1, 0x7aa93205105d3c8d, 0xa3fc0d89ab227976,
    0x31f06f27c383a675, 0xc60a63b8129b1725, 0x6786409c96fa44e1, 0x89267833e1633402, 0x8a126d770ff061c4,
    0x6956bc2c86450a88, 0xeb8bdaebafa03aff, 0xe33d0e8e4aaad704, 0xc9438732b149548c, 0x21cc59cdd86ea54c,
    0xffb4517a85631a45, 0xde60ff19fdd8ad85, 0x4b4255fa8a3c6bec, 0x2ef6524900382f75, 0xf94ebc949701b3a5,
    0x9e5ad30723d9a5f1, 0xab4d821b30bcbdfc, 0xbabde67d39cc30b5, 0x3876684284013d70, 0x1a8825e06b03a235,
    0xb82624d601fb5bf5, 0x535b2962c0ad43d7, 0x29ded61250e9fd72, 0xb0de02f9e94523d1, 0xc269ed4d63d6addb,
    0xe68e15843326970a, 0x45c036ac95cc8019, 0x3a4287dc1a92a264, 0x0466c74766368a08, 0x245fa4a3204f7021,
    0xfe4b82e49c275a03, 0x541bbd2b3a61322a,
];
