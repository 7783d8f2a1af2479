//! One server's storage: hash table + LRU eviction + slab accounting.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use eckv_simnet::SimTime;

use crate::payload::Payload;
use crate::slab::{SlabClasses, SlabConfig, ITEM_OVERHEAD};

/// Result of a Set on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOutcome {
    /// Item stored without displacing anything.
    Stored,
    /// Item stored after evicting older items to make room. Carries the
    /// number of bytes evicted (counted as cache data loss).
    StoredWithEviction {
        /// Charged bytes of evicted items.
        evicted_bytes: u64,
    },
    /// Item larger than the node's whole capacity; rejected.
    TooLarge,
}

/// Running statistics of one store node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Current number of items.
    pub items: u64,
    /// Charged (slab-rounded) bytes currently used.
    pub used_bytes: u64,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Get hits.
    pub hits: u64,
    /// Get misses.
    pub misses: u64,
    /// Total Sets processed.
    pub sets: u64,
    /// Items evicted by the LRU.
    pub evictions: u64,
    /// Charged bytes evicted (the paper's "data loss" under memory
    /// pressure, Figure 10).
    pub evicted_bytes: u64,
    /// Items dropped because their TTL elapsed (lazy expiry on access).
    pub expired: u64,
}

#[derive(Debug)]
struct Item {
    key: Arc<str>,
    payload: Payload,
    charged: u64,
    /// Absolute expiry instant; `None` = never (memcached `exptime 0`).
    expires_at: Option<SimTime>,
}

/// Ends of the LRU list and of the free-slot list.
const NIL: u32 = u32::MAX;

/// One slab slot: an item linked into the LRU list, or a free slot
/// linked (through `next`) into the free list.
#[derive(Debug)]
struct Slot {
    item: Option<Item>,
    prev: u32,
    next: u32,
}

/// A fast, fixed, deterministic string hasher for the key index: eight
/// bytes per multiply-rotate round, then a final avalanche so the low
/// bits the table probes with depend on every input byte. The index is
/// never iterated, so the hasher decides nothing observable.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.mix(u64::from(b));
    }

    fn finish(&self) -> u64 {
        // The splitmix64 finaliser.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// An LRU key-value store with slab-class memory accounting.
///
/// Items live in a slab of slots threaded on an intrusive doubly linked
/// LRU list (head = least recently used) and are found through a
/// key → slot index, so every operation is O(1).
///
/// # Example
///
/// ```
/// use eckv_store::{Payload, SetOutcome, StoreNode};
///
/// let mut node = StoreNode::new(1 << 20);
/// let out = node.set("k1".into(), Payload::inline(vec![0u8; 100]));
/// assert_eq!(out, SetOutcome::Stored);
/// assert!(node.get("k1").is_some());
/// assert!(node.get("nope").is_none());
/// ```
#[derive(Debug)]
pub struct StoreNode {
    index: HashMap<Arc<str>, u32, BuildHasherDefault<KeyHasher>>,
    slots: Vec<Slot>,
    /// Least recently used item.
    head: u32,
    /// Most recently used item.
    tail: u32,
    free: u32,
    stats: StoreStats,
    slab: SlabClasses,
}

impl StoreNode {
    /// Creates a node with `capacity_bytes` of cache memory.
    pub fn new(capacity_bytes: u64) -> Self {
        StoreNode {
            index: HashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            stats: StoreStats {
                capacity_bytes,
                ..StoreStats::default()
            },
            slab: SlabClasses::new(&SlabConfig::default()),
        }
    }

    /// Takes a free slot (or grows the slab) for an item about to be
    /// linked. Borrows only the slab, so the index can stay borrowed.
    fn alloc(slots: &mut Vec<Slot>, free: &mut u32) -> u32 {
        if *free == NIL {
            slots.push(Slot {
                item: None,
                prev: NIL,
                next: NIL,
            });
            u32::try_from(slots.len() - 1).expect("fewer than 2^32 items")
        } else {
            let i = *free;
            *free = slots[i as usize].next;
            i
        }
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Links slot `i` as the most recently used item.
    fn push_back(&mut self, i: u32) {
        let slot = &mut self.slots[i as usize];
        slot.prev = self.tail;
        slot.next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.slots[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Unlinks slot `i`, puts it on the free list and releases its
    /// memory charge.
    fn remove_slot(&mut self, i: u32) -> Item {
        self.unlink(i);
        let slot = &mut self.slots[i as usize];
        slot.next = self.free;
        self.free = i;
        let item = slot.item.take().expect("linked slots hold an item");
        self.stats.used_bytes -= item.charged;
        self.stats.items -= 1;
        item
    }

    /// Stores `payload` under `key` with no expiry, evicting LRU items if
    /// needed.
    pub fn set(&mut self, key: Arc<str>, payload: Payload) -> SetOutcome {
        self.set_with_expiry(key, payload, None)
    }

    /// Stores `payload` under `key`, optionally expiring at `expires_at`
    /// (memcached `exptime` semantics; expiry is lazy, on access).
    pub fn set_with_expiry(
        &mut self,
        key: Arc<str>,
        payload: Payload,
        expires_at: Option<SimTime>,
    ) -> SetOutcome {
        self.set_spilling(key, payload, expires_at, &mut |_, _| {})
    }

    /// Like [`StoreNode::set_with_expiry`], but hands every LRU victim to
    /// `spill` (an SSD overflow tier, in the paper's "SSD-assisted"
    /// deployments) instead of silently dropping it.
    pub fn set_spilling(
        &mut self,
        key: Arc<str>,
        payload: Payload,
        expires_at: Option<SimTime>,
        spill: &mut dyn FnMut(Arc<str>, Payload),
    ) -> SetOutcome {
        self.stats.sets += 1;
        let need = self
            .slab
            .chunk_size(payload.len() + key.len() as u64 + ITEM_OVERHEAD);
        if need > self.stats.capacity_bytes {
            return SetOutcome::TooLarge;
        }
        // An overwrite reuses its slot; unlinking it first releases its
        // charge and keeps it off the eviction path.
        let (i, key) = match self.index.entry(key) {
            Entry::Occupied(e) => {
                let i = *e.get();
                self.unlink(i);
                let old = self.slots[i as usize].item.take().expect("indexed");
                self.stats.used_bytes -= old.charged;
                self.stats.items -= 1;
                (i, old.key)
            }
            Entry::Vacant(e) => {
                let key = e.key().clone();
                let i = Self::alloc(&mut self.slots, &mut self.free);
                e.insert(i);
                (i, key)
            }
        };
        let mut evicted = 0u64;
        while self.stats.used_bytes + need > self.stats.capacity_bytes {
            let victim = self.head;
            assert_ne!(victim, NIL, "used_bytes > 0 implies the LRU is non-empty");
            let item = self.remove_slot(victim);
            self.index.remove(&item.key);
            self.stats.evictions += 1;
            evicted += item.charged;
            spill(item.key, item.payload);
        }
        self.slots[i as usize].item = Some(Item {
            key,
            payload,
            charged: need,
            expires_at,
        });
        self.push_back(i);
        self.stats.used_bytes += need;
        self.stats.items += 1;
        if evicted > 0 {
            self.stats.evicted_bytes += evicted;
            SetOutcome::StoredWithEviction {
                evicted_bytes: evicted,
            }
        } else {
            SetOutcome::Stored
        }
    }

    /// Looks up `key` at instant `now`, refreshing its LRU position on hit
    /// and lazily dropping it if its TTL elapsed.
    pub fn get_at(&mut self, key: &str, now: SimTime) -> Option<Payload> {
        let Some(&i) = self.index.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        let item = self.slots[i as usize].item.as_ref().expect("indexed");
        if item.expires_at.is_some_and(|t| now >= t) {
            self.index.remove(key);
            self.remove_slot(i);
            self.stats.expired += 1;
            self.stats.misses += 1;
            return None;
        }
        let payload = item.payload.clone();
        if self.tail != i {
            self.unlink(i);
            self.push_back(i);
        }
        self.stats.hits += 1;
        Some(payload)
    }

    /// Looks up `key` ignoring expiry (legacy callers and tests).
    pub fn get(&mut self, key: &str) -> Option<Payload> {
        self.get_at(key, SimTime::ZERO)
    }

    /// Removes `key`, returning whether it existed.
    pub fn delete(&mut self, key: &str) -> bool {
        match self.index.remove(key) {
            Some(i) => {
                self.remove_slot(i);
                true
            }
            None => false,
        }
    }

    /// Drops every item (the memcached `flush_all`).
    pub fn flush_all(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
        self.stats.used_bytes = 0;
        self.stats.items = 0;
    }

    /// Whether `key` is present (no LRU refresh).
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
    }

    /// Reads `key` without refreshing its LRU position or counting a
    /// hit/miss (inspection, not a cache access).
    pub fn peek(&self, key: &str) -> Option<Payload> {
        self.index.get(key).map(|&i| {
            self.slots[i as usize]
                .item
                .as_ref()
                .expect("indexed")
                .payload
                .clone()
        })
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eckv_simnet::SimRng;
    use std::collections::BTreeMap;

    /// The `HashMap` + `BTreeMap` store the slab LRU replaced, kept as the
    /// reference it must agree with.
    struct BTreeStore {
        items: HashMap<Arc<str>, (Payload, u64, u64, Option<SimTime>)>,
        lru: BTreeMap<u64, Arc<str>>,
        next_seq: u64,
        stats: StoreStats,
    }

    impl BTreeStore {
        fn new(capacity_bytes: u64) -> Self {
            BTreeStore {
                items: HashMap::new(),
                lru: BTreeMap::new(),
                next_seq: 0,
                stats: StoreStats {
                    capacity_bytes,
                    ..StoreStats::default()
                },
            }
        }

        fn bump(&mut self) -> u64 {
            self.next_seq += 1;
            self.next_seq
        }

        fn set_spilling(
            &mut self,
            key: Arc<str>,
            payload: Payload,
            expires_at: Option<SimTime>,
            spill: &mut dyn FnMut(Arc<str>, Payload),
        ) -> SetOutcome {
            self.stats.sets += 1;
            let need =
                SlabConfig::default().chunk_size(payload.len() + key.len() as u64 + ITEM_OVERHEAD);
            if need > self.stats.capacity_bytes {
                return SetOutcome::TooLarge;
            }
            self.delete(&key);
            let mut evicted = 0u64;
            while self.stats.used_bytes + need > self.stats.capacity_bytes {
                let (_, victim_key) = self.lru.pop_first().expect("non-empty");
                let (p, charged, _, _) = self.items.remove(&victim_key).expect("in sync");
                self.stats.used_bytes -= charged;
                self.stats.items -= 1;
                self.stats.evictions += 1;
                evicted += charged;
                spill(victim_key, p);
            }
            let seq = self.bump();
            self.items
                .insert(key.clone(), (payload, need, seq, expires_at));
            self.lru.insert(seq, key);
            self.stats.used_bytes += need;
            self.stats.items += 1;
            if evicted > 0 {
                self.stats.evicted_bytes += evicted;
                SetOutcome::StoredWithEviction {
                    evicted_bytes: evicted,
                }
            } else {
                SetOutcome::Stored
            }
        }

        fn get_at(&mut self, key: &str, now: SimTime) -> Option<Payload> {
            let Some(&(_, _, seq, exp)) = self.items.get(key) else {
                self.stats.misses += 1;
                return None;
            };
            if exp.is_some_and(|t| now >= t) {
                self.delete(key);
                self.stats.expired += 1;
                self.stats.misses += 1;
                return None;
            }
            let new_seq = self.bump();
            let k = self.lru.remove(&seq).expect("in sync");
            self.lru.insert(new_seq, k);
            let item = self.items.get_mut(key).expect("checked");
            item.2 = new_seq;
            self.stats.hits += 1;
            Some(item.0.clone())
        }

        fn delete(&mut self, key: &str) -> bool {
            match self.items.remove(key) {
                Some((_, charged, seq, _)) => {
                    self.lru.remove(&seq);
                    self.stats.used_bytes -= charged;
                    self.stats.items -= 1;
                    true
                }
                None => false,
            }
        }

        fn flush_all(&mut self) {
            self.items.clear();
            self.lru.clear();
            self.stats.used_bytes = 0;
            self.stats.items = 0;
        }
    }

    #[test]
    fn slab_lru_matches_the_btreemap_reference() {
        let mut seen = StoreStats::default();
        for seed in 0..30u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let capacity = [4_000, 20_000, 64 << 10][seed as usize % 3];
            let keys = [8, 40, 200][seed as usize / 3 % 3];
            let mut node = StoreNode::new(capacity);
            let mut oracle = BTreeStore::new(capacity);
            let mut now = 0u64;
            for step in 0..3_000u64 {
                now += rng.next_below(50);
                let t = SimTime::from_nanos(now);
                let key: Arc<str> = format!("key-{}", rng.next_below(keys)).into();
                match rng.next_below(20) {
                    0..=8 => {
                        let len = match rng.next_below(30) {
                            0 => capacity,
                            _ => rng.range_u64(0, 3_000),
                        };
                        let payload = Payload::synthetic(len, step);
                        let ttl = (rng.next_below(3) == 0)
                            .then(|| SimTime::from_nanos(now + rng.next_below(400)));
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        let out =
                            node.set_spilling(key.clone(), payload.clone(), ttl, &mut |k, p| {
                                got.push((k, p));
                            });
                        let expect = oracle.set_spilling(key, payload, ttl, &mut |k, p| {
                            want.push((k, p));
                        });
                        assert_eq!(out, expect, "seed {seed} step {step}");
                        assert_eq!(got, want, "seed {seed} step {step}: spill order");
                    }
                    9..=15 => assert_eq!(
                        node.get_at(&key, t),
                        oracle.get_at(&key, t),
                        "seed {seed} step {step}"
                    ),
                    16..=17 => assert_eq!(node.delete(&key), oracle.delete(&key)),
                    18 => assert_eq!(node.peek(&key), oracle.items.get(&key).map(|i| i.0.clone())),
                    _ => {
                        if rng.next_below(20) == 0 {
                            node.flush_all();
                            oracle.flush_all();
                        }
                    }
                }
                assert_eq!(node.stats(), oracle.stats, "seed {seed} step {step}");
                assert_eq!(node.index.len(), oracle.items.len());
            }
            for k in 0..keys {
                let key = format!("key-{k}");
                assert_eq!(node.contains(&key), oracle.items.contains_key(key.as_str()));
            }
            seen.evictions += node.stats().evictions;
            seen.expired += node.stats().expired;
            seen.hits += node.stats().hits;
        }
        assert!(
            seen.evictions > 0 && seen.expired > 0 && seen.hits > 0,
            "{seen:?}"
        );
    }

    fn kv(i: usize) -> (Arc<str>, Payload) {
        (
            format!("key-{i}").into(),
            Payload::synthetic(1000, i as u64),
        )
    }

    #[test]
    fn set_get_roundtrip() {
        let mut n = StoreNode::new(1 << 20);
        let (k, v) = kv(1);
        n.set(k.clone(), v.clone());
        assert_eq!(n.get(&k), Some(v));
        let s = n.stats();
        assert_eq!(s.items, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn replacement_releases_old_charge() {
        let mut n = StoreNode::new(1 << 20);
        n.set("k".into(), Payload::synthetic(1000, 1));
        let used_small = n.stats().used_bytes;
        n.set("k".into(), Payload::synthetic(100_000, 2));
        let used_large = n.stats().used_bytes;
        assert!(used_large > used_small);
        n.set("k".into(), Payload::synthetic(1000, 3));
        assert_eq!(n.stats().used_bytes, used_small);
        assert_eq!(n.stats().items, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Capacity for ~3 items of charged size.
        let charged = crate::slab::chunk_size_for(1000 + 5 + ITEM_OVERHEAD);
        let mut n = StoreNode::new(charged * 3);
        n.set("key-0".into(), Payload::synthetic(1000, 0));
        n.set("key-1".into(), Payload::synthetic(1000, 1));
        n.set("key-2".into(), Payload::synthetic(1000, 2));
        // Touch key-0 so key-1 becomes the LRU victim.
        assert!(n.get("key-0").is_some());
        let out = n.set("key-3".into(), Payload::synthetic(1000, 3));
        assert!(matches!(out, SetOutcome::StoredWithEviction { .. }));
        assert!(n.contains("key-0"));
        assert!(!n.contains("key-1"));
        assert!(n.contains("key-2"));
        assert!(n.contains("key-3"));
        assert_eq!(n.stats().evictions, 1);
        assert!(n.stats().evicted_bytes >= 1000);
    }

    #[test]
    fn used_never_exceeds_capacity() {
        let mut n = StoreNode::new(50_000);
        for i in 0..100 {
            let (k, v) = kv(i);
            n.set(k, v);
            assert!(n.stats().used_bytes <= n.stats().capacity_bytes);
        }
        assert!(n.stats().evictions > 0);
    }

    #[test]
    fn oversized_item_rejected() {
        let mut n = StoreNode::new(10_000);
        let out = n.set("big".into(), Payload::synthetic(1 << 20, 0));
        assert_eq!(out, SetOutcome::TooLarge);
        assert_eq!(n.stats().items, 0);
    }

    #[test]
    fn delete_and_flush() {
        let mut n = StoreNode::new(1 << 20);
        let (k, v) = kv(0);
        n.set(k.clone(), v);
        assert!(n.delete(&k));
        assert!(!n.delete(&k));
        assert_eq!(n.stats().used_bytes, 0);
        for i in 0..10 {
            let (k, v) = kv(i);
            n.set(k, v);
        }
        n.flush_all();
        assert_eq!(n.stats().items, 0);
        assert_eq!(n.stats().used_bytes, 0);
    }

    #[test]
    fn ttl_expires_lazily_on_access() {
        let mut n = StoreNode::new(1 << 20);
        let t = |us: u64| SimTime::from_nanos(us * 1000);
        n.set_with_expiry("ttl".into(), Payload::synthetic(100, 1), Some(t(50)));
        n.set("forever".into(), Payload::synthetic(100, 2));
        assert!(n.get_at("ttl", t(10)).is_some(), "before expiry");
        assert!(n.get_at("ttl", t(50)).is_none(), "at expiry");
        assert!(n.get_at("forever", t(1_000_000)).is_some());
        let st = n.stats();
        assert_eq!(st.expired, 1);
        assert_eq!(st.items, 1, "expired item is removed");
    }

    #[test]
    fn expired_item_frees_its_memory_charge() {
        let mut n = StoreNode::new(1 << 20);
        let t = |us: u64| SimTime::from_nanos(us * 1000);
        n.set_with_expiry("e".into(), Payload::synthetic(10_000, 1), Some(t(1)));
        let before = n.stats().used_bytes;
        assert!(before > 0);
        assert!(n.get_at("e", t(5)).is_none());
        assert_eq!(n.stats().used_bytes, 0);
    }

    #[test]
    fn overwrite_clears_expiry() {
        let mut n = StoreNode::new(1 << 20);
        let t = |us: u64| SimTime::from_nanos(us * 1000);
        n.set_with_expiry("k".into(), Payload::synthetic(10, 1), Some(t(5)));
        n.set("k".into(), Payload::synthetic(10, 2)); // no expiry
        assert!(n.get_at("k", t(100)).is_some());
    }

    #[test]
    fn miss_counts() {
        let mut n = StoreNode::new(1 << 20);
        assert!(n.get("ghost").is_none());
        assert_eq!(n.stats().misses, 1);
    }
}
