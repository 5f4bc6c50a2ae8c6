//! Content-addressed bundle store and conditional-delivery protocol.
//!
//! The paper's §4.4 partitioning lets an applet "require only those
//! Jar files required by the applet code"; this module upgrades that
//! to serve-many semantics. A [`BundleStore`] memoizes each bundle's
//! compressed form under the SHA-256 digest of its *contents*, so the
//! first request pays the LZSS cost and every later request — from any
//! customer whose subset includes the same bundle — is an `Arc`
//! pointer clone. Conditional delivery adds the HTTP-304 analog: a
//! client presents the digests it already holds and the server
//! responds with [`BundleDelivery::NotModified`] instead of bytes.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use ipd_pack::{Bundle, BundleSet, PackedBundle};

use crate::sha::Sha256;

/// A SHA-256 content digest.
pub type Digest = [u8; 32];

/// Digest of a bundle's uncompressed contents: its name plus every
/// entry's name and data, length-prefix framed as by
/// [`crate::sha256_parts`] and streamed without copying an entry. Any
/// mutation — a renamed entry, a flipped byte — changes the digest, so
/// a mutated bundle can never alias a cached one.
#[must_use]
pub fn bundle_digest(bundle: &Bundle) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update_part(b"ipd-bundle-v1");
    hasher.update_part(bundle.name().as_bytes());
    for entry in bundle.archive().entries() {
        hasher.update_part(entry.name().as_bytes());
        hasher.update_part(entry.data());
    }
    hasher.finalize()
}

/// Digests of the built-in [`BundleSet::full_set`] bundles, computed
/// once per process (the built-in sets are immutable: their contents
/// are embedded at compile time).
pub(crate) fn builtin_digests() -> &'static HashMap<String, Digest> {
    static DIGESTS: OnceLock<HashMap<String, Digest>> = OnceLock::new();
    DIGESTS.get_or_init(|| {
        BundleSet::full_set()
            .bundles()
            .iter()
            .map(|b| (b.name().to_owned(), bundle_digest(b)))
            .collect()
    })
}

/// Counters a delivery bench (and an operator) watches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Requests answered from the packed cache.
    pub hits: u64,
    /// Requests that had to run compression.
    pub misses: u64,
    /// Bundles skipped because the client already held their digest
    /// (the HTTP-304 analog).
    pub not_modified: u64,
    /// Compressed payload bytes actually transferred.
    pub bytes_served: u64,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} not-modified, {} bytes served",
            self.hits, self.misses, self.not_modified, self.bytes_served
        )
    }
}

/// A compress-once, content-addressed cache of packed bundles.
///
/// # Examples
///
/// ```
/// use ipd_core::BundleStore;
/// use ipd_pack::Bundle;
///
/// # fn main() -> Result<(), ipd_pack::PackError> {
/// let mut store = BundleStore::new();
/// let bundle = Bundle::from_entries("Demo", "demo", &[("a", "aaaa")])?;
/// let (digest, first) = store.get_or_pack(&bundle);
/// let (_, second) = store.get_or_pack(&bundle);
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert!(store.contains(&digest));
/// assert_eq!(store.stats().misses, 1);
/// assert_eq!(store.stats().hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BundleStore {
    packed: HashMap<Digest, Arc<PackedBundle>>,
    threads: usize,
    stats: StoreStats,
}

impl Default for BundleStore {
    fn default() -> Self {
        Self::new()
    }
}

impl BundleStore {
    /// A store packing with the machine's available parallelism.
    #[must_use]
    pub fn new() -> Self {
        Self::with_threads(ipd_pack::default_threads())
    }

    /// A store packing cache misses on up to `threads` threads.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        BundleStore {
            packed: HashMap::new(),
            threads: threads.max(1),
            stats: StoreStats::default(),
        }
    }

    /// Looks up the packed form of `bundle` by content digest, packing
    /// (and caching) it on a miss.
    pub fn get_or_pack(&mut self, bundle: &Bundle) -> (Digest, Arc<PackedBundle>) {
        let digest = bundle_digest(bundle);
        (digest, self.get_or_pack_keyed(digest, bundle))
    }

    /// Same as [`BundleStore::get_or_pack`], but with the digest
    /// supplied by the caller (the applet server precomputes digests
    /// for its immutable catalog, so the warm path hashes nothing).
    pub fn get_or_pack_keyed(&mut self, digest: Digest, bundle: &Bundle) -> Arc<PackedBundle> {
        if let Some(found) = self.packed.get(&digest) {
            self.stats.hits += 1;
            return Arc::clone(found);
        }
        self.stats.misses += 1;
        let packed = Arc::new(PackedBundle::with_threads(bundle, self.threads));
        // Serialize once up front so serving is a pure pointer clone.
        let _ = packed.wire_bytes();
        self.packed.insert(digest, Arc::clone(&packed));
        packed
    }

    /// Whether a digest is cached.
    #[must_use]
    pub fn contains(&self, digest: &Digest) -> bool {
        self.packed.contains_key(digest)
    }

    /// Number of distinct cached bundles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// The hit/miss/bytes counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    pub(crate) fn note_served(&mut self, bytes: usize) {
        self.stats.bytes_served += bytes as u64;
    }

    pub(crate) fn note_not_modified(&mut self) {
        self.stats.not_modified += 1;
    }
}

/// One row of a delivery manifest: what the server would ship.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Bundle name.
    pub name: String,
    /// Content digest of the bundle.
    pub digest: Digest,
    /// Compressed download size in bytes.
    pub packed_size: usize,
}

/// The bundle list (names, digests, sizes) for one customer's
/// executable — what a client consults to decide which digests to
/// present in a conditional fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryManifest {
    product: String,
    entries: Vec<ManifestEntry>,
}

impl DeliveryManifest {
    pub(crate) fn new(product: String, entries: Vec<ManifestEntry>) -> Self {
        DeliveryManifest { product, entries }
    }

    /// Product the manifest describes.
    #[must_use]
    pub fn product(&self) -> &str {
        &self.product
    }

    /// The manifest rows.
    #[must_use]
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// Total download size if the client holds nothing.
    #[must_use]
    pub fn total_packed(&self) -> usize {
        self.entries.iter().map(|e| e.packed_size).sum()
    }
}

/// One bundle's delivery outcome in a conditional fetch.
#[derive(Debug, Clone)]
pub enum BundleDelivery {
    /// The client already holds this exact content (HTTP-304 analog).
    NotModified {
        /// Bundle name.
        name: String,
        /// The digest the client presented.
        digest: Digest,
    },
    /// Full compressed container bytes, shared from the store.
    Payload {
        /// Bundle name.
        name: String,
        /// Content digest of the delivered bundle.
        digest: Digest,
        /// The serialized archive container (store-shared storage).
        bytes: Arc<[u8]>,
    },
}

impl BundleDelivery {
    /// Bundle name for either outcome.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            BundleDelivery::NotModified { name, .. } | BundleDelivery::Payload { name, .. } => name,
        }
    }

    /// Content digest for either outcome.
    #[must_use]
    pub fn digest(&self) -> &Digest {
        match self {
            BundleDelivery::NotModified { digest, .. } | BundleDelivery::Payload { digest, .. } => {
                digest
            }
        }
    }
}

/// The server's answer to a conditional fetch.
#[derive(Debug, Clone)]
pub struct DeliveryResponse {
    product: String,
    items: Vec<BundleDelivery>,
}

impl DeliveryResponse {
    pub(crate) fn new(product: String, items: Vec<BundleDelivery>) -> Self {
        DeliveryResponse { product, items }
    }

    /// Product the response serves.
    #[must_use]
    pub fn product(&self) -> &str {
        &self.product
    }

    /// Per-bundle outcomes in required-bundle order.
    #[must_use]
    pub fn items(&self) -> &[BundleDelivery] {
        &self.items
    }

    /// Compressed bytes actually transferred.
    #[must_use]
    pub fn bytes_transferred(&self) -> usize {
        self.items
            .iter()
            .map(|i| match i {
                BundleDelivery::Payload { bytes, .. } => bytes.len(),
                BundleDelivery::NotModified { .. } => 0,
            })
            .sum()
    }

    /// How many bundles carried payloads.
    #[must_use]
    pub fn delivered(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, BundleDelivery::Payload { .. }))
            .count()
    }

    /// How many bundles were skipped as not-modified.
    #[must_use]
    pub fn not_modified(&self) -> usize {
        self.items.len() - self.delivered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_content_addressed() {
        let a = Bundle::from_entries("X", "d", &[("f", "hello world")]).unwrap();
        let same = Bundle::from_entries("X", "d", &[("f", "hello world")]).unwrap();
        let flipped = Bundle::from_entries("X", "d", &[("f", "hello worlD")]).unwrap();
        let renamed = Bundle::from_entries("X", "d", &[("g", "hello world")]).unwrap();
        assert_eq!(bundle_digest(&a), bundle_digest(&same));
        assert_ne!(bundle_digest(&a), bundle_digest(&flipped));
        assert_ne!(bundle_digest(&a), bundle_digest(&renamed));
        // The streamed digest keeps the `sha256_parts` framing, so
        // digests clients already hold stay valid.
        let parts: [&[u8]; 4] = [b"ipd-bundle-v1", b"X", b"f", b"hello world"];
        assert_eq!(bundle_digest(&a), crate::sha::sha256_parts(&parts));
    }

    #[test]
    fn mutated_bundle_misses_the_cache() {
        let mut store = BundleStore::with_threads(1);
        let a = Bundle::from_entries("X", "d", &[("f", "hello world")]).unwrap();
        let b = Bundle::from_entries("X", "d", &[("f", "hello worlD")]).unwrap();
        store.get_or_pack(&a);
        store.get_or_pack(&b);
        assert_eq!(store.len(), 2, "distinct contents, distinct slots");
        assert_eq!(store.stats().misses, 2);
        store.get_or_pack(&a);
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn cached_wire_bytes_match_cold_serialization() {
        let mut store = BundleStore::with_threads(2);
        let bundle =
            Bundle::from_entries("X", "d", &[("f", "abcabcabc"), ("g", "xyzxyzxyz")]).unwrap();
        let (_, packed) = store.get_or_pack(&bundle);
        assert_eq!(
            packed.wire_bytes().to_vec(),
            bundle.archive().to_bytes(),
            "store must serve byte-identical containers"
        );
    }

    #[test]
    fn builtin_digests_cover_the_full_set() {
        let digests = builtin_digests();
        for bundle in BundleSet::full_set().bundles() {
            assert!(digests.contains_key(bundle.name()));
        }
        assert_eq!(digests.len(), BundleSet::full_set().bundles().len());
    }
}
