//! Cross-request LRU advice cache, keyed on the exact source text.
//!
//! [`AdviceCache`] maps a snippet's source text to the final answer the
//! advisor gave it: the [`Advice`], or the [`ParseError`] of a snippet
//! that does not parse. Advice is a pure function of the text (the head
//! probabilities are bitwise row-deterministic and the ComPar analysis
//! reads only the text), so a cached answer is bit-identical to what a
//! fresh `Advisor::advise` call would return. A hit therefore needs no
//! front end and no forward at all: the scheduler looks each request up
//! in `Client::submit`, before the queue, and answers hits on the spot.
//!
//! The key is the whole text: the map hashes it and confirms a match with
//! a full-text compare. Two snippets that differ only in whitespace are
//! two entries. Each key is stored once, shared by the map and its slot.
//!
//! Three bounds keep the cache's memory explicit:
//!
//! * `capacity` entries (0 disables the cache: every lookup misses,
//!   inserts are dropped);
//! * a source longer than [`MAX_CACHED_SOURCE_BYTES`] is never cached; it
//!   is still answered, through the collector, every time;
//! * the cached texts together hold at most [`MAX_CACHED_BYTES`]; an
//!   insert that would pass the budget evicts least-recently-used entries
//!   until it fits.
//!
//! The implementation is a classic intrusive LRU: a slot arena threaded
//! by prev/next indices plus a key→slot map. `get` and `insert` are O(1)
//! (amortized) besides hashing the text. The cache counts its evictions;
//! hits and misses are counted by the scheduler, which decides for each
//! request where it was answered.

use pragformer_core::Advice;
use pragformer_cparse::ParseError;
use std::collections::HashMap;
use std::sync::Arc;

/// The answer cached for one source text.
pub type Answer = Result<Advice, ParseError>;

/// Longest source text the cache keeps, in bytes. The `serve_zipf`
/// benchmark's largest snippet is 6.7 KB (p99 4.9 KB), so corpus-sized
/// snippets all fit, while a pasted file cannot take over the cache.
pub const MAX_CACHED_SOURCE_BYTES: usize = 16 << 10;

/// Most source-text bytes all cached keys may hold together. The 4096
/// most popular `serve_zipf` snippets hold about 3 MB.
pub const MAX_CACHED_BYTES: usize = 16 << 20;

/// Sentinel slot index meaning "none".
const NIL: usize = usize::MAX;

struct Slot {
    key: Arc<str>,
    value: Answer,
    /// More-recently-used neighbor ([`NIL`] for the MRU slot).
    prev: usize,
    /// Less-recently-used neighbor ([`NIL`] for the LRU slot).
    next: usize,
}

/// A bounded least-recently-used map from source texts to [`Answer`]s.
/// See the module docs for semantics.
pub struct AdviceCache {
    capacity: usize,
    max_source_bytes: usize,
    max_bytes: usize,
    /// Key bytes held by the live entries.
    bytes: usize,
    map: HashMap<Arc<str>, usize>,
    slots: Vec<Slot>,
    /// Slots emptied by evictions, ready for reuse.
    free: Vec<usize>,
    /// Most-recently-used slot.
    head: usize,
    /// Least-recently-used slot (the eviction candidate).
    tail: usize,
    evictions: u64,
}

impl AdviceCache {
    /// Creates a cache holding at most `capacity` entries (0 disables),
    /// under the [`MAX_CACHED_SOURCE_BYTES`] and [`MAX_CACHED_BYTES`]
    /// bounds.
    pub fn new(capacity: usize) -> AdviceCache {
        AdviceCache::with_byte_bounds(capacity, MAX_CACHED_SOURCE_BYTES, MAX_CACHED_BYTES)
    }

    fn with_byte_bounds(capacity: usize, max_source_bytes: usize, max_bytes: usize) -> Self {
        AdviceCache {
            capacity,
            max_source_bytes,
            max_bytes,
            bytes: 0,
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            slots: Vec::with_capacity(capacity.min(1 << 16)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            evictions: 0,
        }
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Source-text bytes the cached keys hold.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Entries displaced to make room since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether `source` is short enough to be cached at all (false for
    /// every source when the cache is disabled).
    pub fn admits(&self, source: &str) -> bool {
        self.capacity > 0 && source.len() <= self.max_source_bytes.min(self.max_bytes)
    }

    /// Looks up `source`, marking it most-recently-used on a hit. A
    /// source the cache does not [admit](AdviceCache::admits) misses
    /// without being hashed.
    pub fn get(&mut self, source: &str) -> Option<Answer> {
        if !self.admits(source) {
            return None;
        }
        let slot = *self.map.get(source)?;
        self.touch(slot);
        Some(self.slots[slot].value.clone())
    }

    /// Inserts (or refreshes) `source → value`, evicting
    /// least-recently-used entries until both the entry bound and the
    /// byte budget hold. A source the cache does not
    /// [admit](AdviceCache::admits) is dropped.
    pub fn insert(&mut self, source: &str, value: Answer) {
        if !self.admits(source) {
            return;
        }
        if let Some(&slot) = self.map.get(source) {
            self.slots[slot].value = value;
            self.touch(slot);
            return;
        }
        while self.map.len() >= self.capacity || self.bytes + source.len() > self.max_bytes {
            self.evict_lru();
        }
        let key: Arc<str> = Arc::from(source);
        let fresh = Slot { key: Arc::clone(&key), value, prev: NIL, next: NIL };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = fresh;
                slot
            }
            None => {
                self.slots.push(fresh);
                self.slots.len() - 1
            }
        };
        self.bytes += source.len();
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    /// Drops the least-recently-used entry; its slot joins the free list.
    fn evict_lru(&mut self) {
        let victim = self.tail;
        self.unlink(victim);
        let key = std::mem::replace(&mut self.slots[victim].key, Arc::from(""));
        self.map.remove(&key);
        self.bytes -= key.len();
        self.free.push(victim);
        self.evictions += 1;
    }

    /// Unlinks `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    /// Links `slot` in as the most-recently-used entry.
    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Moves an existing `slot` to the front of the recency list.
    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// Keys from most- to least-recently-used (tests and debugging).
    pub fn keys_by_recency(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.slots[cur].key.to_string());
            cur = self.slots[cur].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A distinguishable answer: the error message carries `tag`.
    fn answer(tag: &str) -> Answer {
        Err(ParseError { msg: tag.to_string(), line: 1, col: 1 })
    }

    fn tag(a: Option<Answer>) -> Option<String> {
        a.map(|a| a.expect_err("test answers are errors").msg)
    }

    #[test]
    fn get_returns_inserted_values() {
        let mut c = AdviceCache::new(4);
        c.insert("a = 1;", answer("one"));
        assert_eq!(tag(c.get("a = 1;")), Some("one".to_string()));
        assert_eq!(tag(c.get("b = 2;")), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), "a = 1;".len());
    }

    #[test]
    fn keys_are_the_exact_text() {
        let mut c = AdviceCache::new(4);
        c.insert("a = 1;", answer("one"));
        assert!(c.get("a = 1; ").is_none(), "trailing space is another key");
        assert!(c.get("a  = 1;").is_none(), "inner whitespace is another key");
        assert!(c.get("a = 1;").is_some());
    }

    #[test]
    fn evicts_least_recently_used_in_order() {
        let mut c = AdviceCache::new(2);
        c.insert("1", answer("1"));
        c.insert("2", answer("2"));
        c.insert("3", answer("3")); // evicts "1"
        assert!(c.get("1").is_none());
        assert_eq!(tag(c.get("2")), Some("2".to_string()));
        assert_eq!(tag(c.get("3")), Some("3".to_string()));
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c = AdviceCache::new(2);
        c.insert("1", answer("1"));
        c.insert("2", answer("2"));
        // Touch "1"; the eviction victim must now be "2".
        assert!(c.get("1").is_some());
        c.insert("3", answer("3"));
        assert!(c.get("2").is_none(), "\"2\" was LRU after \"1\" was touched");
        assert!(c.get("1").is_some());
        assert!(c.get("3").is_some());
    }

    #[test]
    fn insert_refreshes_existing_key_without_eviction() {
        let mut c = AdviceCache::new(2);
        c.insert("1", answer("1"));
        c.insert("2", answer("2"));
        c.insert("1", answer("9")); // refresh, not insert
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.bytes(), 2);
        assert_eq!(tag(c.get("1")), Some("9".to_string()));
        // "2" is now LRU.
        c.insert("3", answer("3"));
        assert!(c.get("2").is_none());
    }

    #[test]
    fn recency_order_is_tracked_exactly() {
        let mut c = AdviceCache::new(3);
        c.insert("1", answer("1"));
        c.insert("2", answer("2"));
        c.insert("3", answer("3"));
        assert_eq!(c.keys_by_recency(), ["3", "2", "1"]);
        c.get("1");
        assert_eq!(c.keys_by_recency(), ["1", "3", "2"]);
        c.insert("4", answer("4")); // evicts "2"
        assert_eq!(c.keys_by_recency(), ["4", "1", "3"]);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = AdviceCache::new(0);
        assert!(!c.admits("1"));
        c.insert("1", answer("1"));
        assert!(c.get("1").is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn single_entry_cache_cycles_cleanly() {
        let mut c = AdviceCache::new(1);
        for i in 0..10usize {
            let key = i.to_string();
            c.insert(&key, answer(&key));
            assert_eq!(tag(c.get(&key)), Some(key.clone()));
            assert_eq!(c.len(), 1);
        }
        assert_eq!(c.evictions(), 9);
    }

    #[test]
    fn over_cap_source_is_not_cached() {
        let mut c = AdviceCache::new(4);
        let at_cap = "x".repeat(MAX_CACHED_SOURCE_BYTES);
        let over_cap = "x".repeat(MAX_CACHED_SOURCE_BYTES + 1);
        assert!(c.admits(&at_cap));
        assert!(!c.admits(&over_cap));
        c.insert(&over_cap, answer("big"));
        assert!(c.get(&over_cap).is_none());
        assert!(c.is_empty());
        c.insert(&at_cap, answer("fits"));
        assert_eq!(tag(c.get(&at_cap)), Some("fits".to_string()));
        assert_eq!(c.bytes(), MAX_CACHED_SOURCE_BYTES);
    }

    #[test]
    fn byte_budget_evicts_until_the_new_key_fits() {
        // Room for 10 entries but only 12 key bytes.
        let mut c = AdviceCache::with_byte_bounds(10, 8, 12);
        c.insert("aaaa", answer("a"));
        c.insert("bbbb", answer("b"));
        c.insert("cccc", answer("c"));
        assert_eq!(c.bytes(), 12);
        // Eight more bytes: the two least-recently-used keys must go.
        c.insert("dddddddd", answer("d"));
        assert_eq!(c.keys_by_recency(), ["dddddddd", "cccc"]);
        assert_eq!(c.bytes(), 12);
        assert_eq!(c.evictions(), 2);
        // Freed slots are reused: the arena never grows past the peak.
        c.insert("e", answer("e"));
        c.insert("f", answer("f"));
        assert!(c.slots.len() <= 3, "{} slots", c.slots.len());
        assert!(c.bytes() <= 12);
        assert!(!c.admits("ggggggggg"), "nine bytes is over the per-entry cap");
    }
}
