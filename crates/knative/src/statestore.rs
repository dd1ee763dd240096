//! Forecasting-state persistence (the prototype's etcd role).
//!
//! §5.2: "we deploy a horizontal pod scaler to manage scaling FeMux
//! pods, and use etcd to persist threads' states" — when a FeMux pod is
//! rescheduled, its applications' forecasting state (history window,
//! current forecaster, block progress) must survive. [`StateStore`] is a
//! versioned, thread-safe key-value store standing in for etcd, plus a
//! text codec for [`ManagerSnapshot`] so the stored values are plain
//! strings as they would be in etcd.
//!
//! A pod can die mid-write, and storage can rot: the codec guards
//! the payload with an FNV-1a 64 checksum so truncation and bit flips
//! are *detected* (decode returns `None`) rather than silently restored
//! as garbage. [`StateStore::put_snapshot`] keeps the previous valid
//! value under a `#prev` backup key, and
//! [`StateStore::recover_snapshot`] falls back to it when the primary
//! is damaged — crash recovery lands on the last good snapshot instead
//! of panicking or losing the app's history entirely.

use std::collections::BTreeMap;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use femux::manager::ManagerSnapshot;
use femux_forecast::ForecasterKind;

/// A versioned in-memory key-value store (etcd stand-in).
///
/// Keys are ordered (as in etcd, whose keyspace is a sorted byte
/// range): enumeration such as [`StateStore::keys`] is deterministic,
/// so snapshot/restore tooling built on it replays identically.
#[derive(Debug, Default)]
pub struct StateStore {
    inner: RwLock<Entries>,
}

/// Key → (revision, value).
type Entries = BTreeMap<String, (u64, String)>;

impl StateStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        StateStore::default()
    }

    /// A poisoned lock means a writer panicked mid-update, which is
    /// already a fatal bug, so it is not recovered from.
    fn read(&self) -> RwLockReadGuard<'_, Entries> {
        self.inner.read().expect("state store lock poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Entries> {
        self.inner.write().expect("state store lock poisoned")
    }

    /// Writes a value, returning the new revision for the key.
    pub fn put(&self, key: &str, value: String) -> u64 {
        femux_obs::counter_add("knative.statestore.puts", 1);
        let mut map = self.write();
        let rev = map.get(key).map(|(r, _)| r + 1).unwrap_or(1);
        map.insert(key.to_string(), (rev, value));
        rev
    }

    /// Reads the latest value and its revision.
    pub fn get(&self, key: &str) -> Option<(u64, String)> {
        femux_obs::counter_add("knative.statestore.gets", 1);
        self.read().get(key).cloned()
    }

    /// Deletes a key; returns whether it existed.
    pub fn delete(&self, key: &str) -> bool {
        self.write().remove(key).is_some()
    }

    /// Returns all keys in sorted order (etcd-style range listing) —
    /// the enumeration a rescheduled FeMux pod uses to restore every
    /// application state deterministically.
    pub fn keys(&self) -> Vec<String> {
        self.read().keys().cloned().collect()
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Compare-and-swap: writes only if the current revision matches
    /// `expected_rev` (0 = key must not exist). Returns the new revision
    /// on success.
    pub fn cas(
        &self,
        key: &str,
        expected_rev: u64,
        value: String,
    ) -> Result<u64, u64> {
        let mut map = self.write();
        let current = map.get(key).map(|(r, _)| *r).unwrap_or(0);
        if current != expected_rev {
            return Err(current);
        }
        let rev = current + 1;
        map.insert(key.to_string(), (rev, value));
        Ok(rev)
    }

    /// Persists a snapshot under `key`, first preserving the current
    /// value — if it still decodes — under the `#prev` backup key so a
    /// corrupted write can be recovered from.
    pub fn put_snapshot(
        &self,
        key: &str,
        snap: &ManagerSnapshot,
    ) -> u64 {
        if let Some((_, current)) = self.get(key) {
            if decode_snapshot(&current).is_some() {
                self.put(&backup_key(key), current);
            }
        }
        self.put(key, encode_snapshot(snap))
    }

    /// Reads a snapshot back, falling back to the `#prev` backup when
    /// the primary value is missing or fails its integrity check.
    /// Returns `None` only when no stored value decodes.
    pub fn recover_snapshot(&self, key: &str) -> Option<ManagerSnapshot> {
        if let Some((_, text)) = self.get(key) {
            if let Some(snap) = decode_snapshot(&text) {
                return Some(snap);
            }
            femux_obs::counter_add(
                "knative.statestore.corruption_detected",
                1,
            );
        }
        let (_, prev) = self.get(&backup_key(key))?;
        let snap = decode_snapshot(&prev)?;
        femux_obs::counter_add(
            "knative.statestore.recovered_from_backup",
            1,
        );
        Some(snap)
    }
}

fn backup_key(key: &str) -> String {
    format!("{key}#prev")
}

/// FNV-1a 64-bit hash of the snapshot body — cheap, dependency-free,
/// and plenty to catch truncation and bit rot (this is an integrity
/// check, not an authenticity one).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Encodes a snapshot as a line-oriented string value (`v3`: a `crc=`
/// line protects everything after it). Samples use Rust's shortest
/// round-trip formatting, so every `f64` decodes to the same bits and a
/// restored manager continues bit-identically.
pub fn encode_snapshot(snap: &ManagerSnapshot) -> String {
    let kinds: Vec<&str> = snap
        .history_of_kinds
        .iter()
        .map(|k| k.name())
        .collect();
    let recent: Vec<String> =
        snap.recent.iter().map(|v| format!("{v}")).collect();
    let body = format!(
        "current={}\nsteps={}\nexec_secs={}\nhistory={}\nrecent={}",
        snap.current.name(),
        snap.steps,
        snap.exec_secs,
        kinds.join(","),
        recent.join(",")
    );
    format!("v3\ncrc={:016x}\n{body}", fnv1a64(body.as_bytes()))
}

fn parse_kind(name: &str) -> Option<ForecasterKind> {
    ForecasterKind::ALL.into_iter().find(|k| k.name() == name)
}

/// Decodes a snapshot encoded by [`encode_snapshot`]. Also accepts the
/// legacy full-series layouts — checksum-less `v1` and checksummed
/// `v2` — whose whole `series` becomes `recent` (its length is the step
/// count). Any checksum mismatch is counted in
/// `knative.statestore.crc_mismatches` and decodes to `None`.
pub fn decode_snapshot(text: &str) -> Option<ManagerSnapshot> {
    let (version, rest) = text.split_once('\n')?;
    let legacy = match version {
        "v1" => return decode_body(rest, true),
        "v2" => true,
        "v3" => false,
        _ => return None,
    };
    let (crc_line, body) = rest.split_once('\n')?;
    let crc = u64::from_str_radix(crc_line.strip_prefix("crc=")?, 16).ok()?;
    if fnv1a64(body.as_bytes()) != crc {
        femux_obs::counter_add("knative.statestore.crc_mismatches", 1);
        return None;
    }
    decode_body(body, legacy)
}

/// Parses a snapshot body. The legacy layout stores `next_block_end`
/// and the full `series`; the current one `steps` and the `recent`
/// tail.
fn decode_body(body: &str, legacy: bool) -> Option<ManagerSnapshot> {
    let (steps_key, samples_key) = if legacy {
        ("next_block_end", "series")
    } else {
        ("steps", "recent")
    };
    let mut current = None;
    let mut steps = None;
    let mut exec_secs = None;
    let mut history = None;
    let mut samples = None;
    for line in body.lines() {
        let (key, value) = line.split_once('=')?;
        match key {
            "current" => current = parse_kind(value),
            "exec_secs" => exec_secs = value.parse().ok(),
            "history" => {
                history = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(parse_kind)
                    .collect::<Option<Vec<_>>>();
            }
            k if k == steps_key => steps = value.parse::<usize>().ok(),
            k if k == samples_key => {
                samples = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse::<f64>().ok())
                    .collect::<Option<Vec<_>>>();
            }
            _ => return None,
        }
    }
    let recent = samples.unwrap_or_default();
    let steps = steps?;
    // A legacy snapshot holds every sample, so its length is the step
    // count; `next_block_end` is derivable and only checked for
    // presence.
    let steps = if legacy { recent.len() } else { steps };
    if recent.len() > steps {
        return None;
    }
    Some(ManagerSnapshot {
        recent,
        steps,
        current: current?,
        history_of_kinds: history.unwrap_or_default(),
        exec_secs: exec_secs?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integration::tests::trained_model;
    use femux::manager::AppManager;

    fn snapshot() -> ManagerSnapshot {
        ManagerSnapshot {
            recent: vec![0.0, 1.5, 2.25, 0.125],
            steps: 244,
            current: ForecasterKind::Markov,
            history_of_kinds: vec![
                ForecasterKind::Ses,
                ForecasterKind::Markov,
            ],
            exec_secs: 0.5,
        }
    }

    #[test]
    fn codec_round_trip() {
        let snap = snapshot();
        let text = encode_snapshot(&snap);
        let back = decode_snapshot(&text).expect("decodes");
        assert_eq!(back, snap);
    }

    #[test]
    fn codec_preserves_sample_bits() {
        // Non-dyadic concurrency averages: a fixed-precision encoding
        // would round every one of them.
        let recent = vec![1.0 / 3.0, 0.1 + 0.2, 2.0 / 7.0, 1e-7 / 3.0];
        let snap = ManagerSnapshot {
            recent: recent.clone(),
            ..snapshot()
        };
        let back =
            decode_snapshot(&encode_snapshot(&snap)).expect("decodes");
        for (want, got) in recent.iter().zip(&back.recent) {
            assert_eq!(want.to_bits(), got.to_bits(), "{want} vs {got}");
        }
        assert_eq!(back.recent.len(), recent.len());
    }

    #[test]
    fn restore_at_every_step_continues_bit_identically() {
        let model = trained_model();
        let n = model.cfg.block_len * 3 + 17;
        let series: Vec<f64> = (0..n)
            .map(|t| (t % 7) as f64 / 3.0 + (t as f64 * 0.1).sin().abs())
            .collect();
        // The uninterrupted manager: its encoded snapshot before each
        // step, and the forecast after it.
        let mut reference = AppManager::new(model.clone(), 0.5);
        let mut snaps = Vec::with_capacity(n);
        let mut forecasts = Vec::with_capacity(n);
        for &v in &series {
            snaps.push(encode_snapshot(&reference.snapshot()));
            reference.observe(v);
            forecasts.push(reference.forecast(1)[0].to_bits());
        }
        for (k, text) in snaps.iter().enumerate() {
            let snap = decode_snapshot(text).expect("decodes");
            assert_eq!(snap.steps, k);
            let mut restored = AppManager::from_snapshot(model.clone(), snap);
            for t in k..n {
                restored.observe(series[t]);
                assert_eq!(
                    restored.forecast(1)[0].to_bits(),
                    forecasts[t],
                    "restored at step {k}, forecast at step {t}"
                );
            }
            assert_eq!(
                restored.history_of_kinds, reference.history_of_kinds,
                "restored at step {k}"
            );
            assert_eq!(restored.snapshot(), reference.snapshot());
        }
    }

    #[test]
    fn codec_rejects_garbage() {
        assert!(decode_snapshot("").is_none());
        assert!(decode_snapshot("v2\ncurrent=ar").is_none());
        assert!(decode_snapshot("v1\ncurrent=warp-drive").is_none());
    }

    #[test]
    fn store_versions_and_cas() {
        let store = StateStore::new();
        assert!(store.is_empty());
        let r1 = store.put("app-1", "a".into());
        let r2 = store.put("app-1", "b".into());
        assert_eq!((r1, r2), (1, 2));
        assert_eq!(store.get("app-1"), Some((2, "b".into())));
        // Stale CAS fails and reports the real revision.
        assert_eq!(store.cas("app-1", 1, "c".into()), Err(2));
        assert_eq!(store.cas("app-1", 2, "c".into()), Ok(3));
        // CAS-create semantics.
        assert_eq!(store.cas("app-2", 0, "x".into()), Ok(1));
        assert_eq!(store.len(), 2);
        assert!(store.delete("app-2"));
        assert!(!store.delete("app-2"));
    }

    #[test]
    fn keys_enumerate_in_sorted_order() {
        let store = StateStore::new();
        for key in ["apps/9", "apps/1", "apps/5"] {
            store.put(key, "v".into());
        }
        // Insertion order differs from key order; enumeration must be
        // sorted regardless, like an etcd range read.
        assert_eq!(store.keys(), vec!["apps/1", "apps/5", "apps/9"]);
    }

    #[test]
    fn legacy_full_series_snapshots_decode_and_restore() {
        let model = trained_model();
        // Quarter steps are exact at the legacy codec's nine decimals.
        let series: Vec<f64> =
            (0..75).map(|t| ((t * 7) % 13) as f64 / 4.0).collect();
        let mut original = AppManager::new(model.clone(), 0.5);
        for &v in &series {
            original.observe(v);
        }
        // The exact layout the pre-`v3` codec wrote: `next_block_end`
        // and the whole series, checksum-less (`v1`) or checksummed.
        let kinds: Vec<&str> =
            original.history_of_kinds.iter().map(|k| k.name()).collect();
        let values: Vec<String> =
            series.iter().map(|v| format!("{v:.9}")).collect();
        let body = format!(
            "current={}\nnext_block_end=120\nexec_secs=0.5\n\
             history={}\nseries={}",
            original.current().name(),
            kinds.join(","),
            values.join(",")
        );
        let crc = fnv1a64(body.as_bytes());
        let mut restored: Vec<AppManager> =
            [format!("v1\n{body}"), format!("v2\ncrc={crc:016x}\n{body}")]
                .iter()
                .map(|text| {
                    let snap = decode_snapshot(text).expect("decodes");
                    assert_eq!((snap.steps, snap.recent.len()), (75, 75));
                    AppManager::from_snapshot(model.clone(), snap)
                })
                .collect();
        for mgr in &restored {
            assert_eq!(mgr.snapshot(), original.snapshot());
        }
        for t in 0..90 {
            let v = (t % 5) as f64 / 2.0;
            let want = (original.observe(v), original.forecast(1));
            for mgr in &mut restored {
                assert_eq!((mgr.observe(v), mgr.forecast(1)), want);
            }
        }
        for mgr in &restored {
            assert_eq!(mgr.history_of_kinds, original.history_of_kinds);
        }
    }

    #[test]
    fn truncation_is_detected_at_every_cut_point() {
        let text = encode_snapshot(&snapshot());
        for cut in 0..text.len() {
            assert!(
                decode_snapshot(&text[..cut]).is_none(),
                "truncation at byte {cut} must not decode"
            );
        }
    }

    #[test]
    fn bit_flips_are_detected_at_every_byte() {
        let text = encode_snapshot(&snapshot());
        for i in 0..text.len() {
            let mut bytes = text.as_bytes().to_vec();
            bytes[i] ^= 0x01;
            let corrupted = String::from_utf8(bytes)
                .expect("ascii stays ascii under a low-bit flip");
            assert!(
                decode_snapshot(&corrupted).is_none(),
                "bit flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn recovery_falls_back_to_last_good_snapshot() {
        let store = StateStore::new();
        let old = snapshot();
        let mut new = snapshot();
        new.recent.push(9.75);
        new.steps += 1;
        store.put_snapshot("apps/7", &old);
        store.put_snapshot("apps/7", &new);

        // Healthy primary wins.
        assert_eq!(store.recover_snapshot("apps/7"), Some(new.clone()));

        // Truncated primary (crash mid-write): recover the backup.
        let (_, text) = store.get("apps/7").expect("stored");
        store.put("apps/7", text[..text.len() / 2].to_string());
        assert_eq!(store.recover_snapshot("apps/7"), Some(old.clone()));

        // Bit-rotted primary: same story.
        let mut bytes = text.into_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        store.put(
            "apps/7",
            String::from_utf8(bytes).expect("ascii"),
        );
        assert_eq!(store.recover_snapshot("apps/7"), Some(old));

        // Corrupt primary and no backup: detected, not a panic.
        store.put("apps/9", "v2\ncrc=0000000000000000\njunk".into());
        assert_eq!(store.recover_snapshot("apps/9"), None);
        // A corrupt write never clobbers the backup of a good one.
        store.put_snapshot("apps/9", &snapshot());
        assert_eq!(store.recover_snapshot("apps/9"), Some(snapshot()));
    }

    #[test]
    fn snapshot_survives_pod_reschedule() {
        // Manager state written by one "pod" restores on another.
        let store = StateStore::new();
        let snap = snapshot();
        store.put("apps/42", encode_snapshot(&snap));
        let (_, text) = store.get("apps/42").expect("persisted");
        let restored = decode_snapshot(&text).expect("decodes");
        assert_eq!(restored, snap);
    }
}
