//! The durable session journal: crash safety by construction.
//!
//! Layout: one directory per session under the journal root,
//! `s<id>/spec.json` (tenant + spec, written *before* the Admitted ack
//! — an acked session is always recoverable), `s<id>/ckpt-<seq>.seg`
//! (rotating parked-checkpoint segments, see below), and
//! `s<id>/verdict.json` (the certified result — its presence marks the
//! session finished). JSON writes are atomic: temp file, `sync_all`,
//! rename, then a *directory* fsync so the rename itself is durable. A
//! daemon killed at any instant therefore leaves each session in exactly
//! one of three states — unstarted (spec only), parked (spec +
//! checkpoint), or finished (spec + verdict) — and [`Journal::recover`]
//! re-materializes the first two.
//!
//! ## Checkpoint segments
//!
//! Parked checkpoints rotate through numbered *segments* instead of
//! rewriting one file. Each `ckpt-<seq>.seg` is a self-framed record —
//! magic, sequence number, payload length, the checkpoint image, and an
//! FNV-1a trailer over everything before it — written directly (no
//! temp + rename dance) and fsynced. Crash safety comes from *rotation*, not
//! atomic replace: a torn newest segment fails its frame checksum and
//! recovery falls back to the previous one (newest-valid-wins), which is
//! exactly the durability the rename gave, one metadata round-trip
//! cheaper on the hot park path. After each durable write the directory
//! is compacted down to the newest `KEEP_SEGMENTS` segments. The
//! payload is additionally validated as a checkpoint image with the
//! zero-copy [`eqp_kahn::CheckpointView`] skim — no decode allocations —
//! so a recovered daemon never re-admits a session whose image cannot
//! resume.
//!
//! Live migration adds two more artifacts. On the *source*,
//! `s<id>/migrate.json` records the handoff phase (`intent` →
//! `released` → `done`): a crashed source re-drives the transfer from
//! its journaled phase instead of re-running the session, so a session
//! never gains a second owner. On the *destination*, `s<id>/import.json`
//! marks a transferred session; until its `committed` flag flips the
//! import is inert — recovery will not run it — which is what makes the
//! offer idempotent and the source's retention safe.

use crate::json::Json;
use crate::session::SessionResult;
use crate::spec::{SessionSpec, SpecLimits};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A session journal rooted at one directory.
#[derive(Debug, Clone)]
pub struct Journal {
    dir: PathBuf,
}

/// Segment frame magic + version.
const SEG_MAGIC: &[u8; 8] = b"EQPDSEG1";

/// How many checkpoint segments compaction retains per session: the
/// newest (the live resume point) plus one predecessor (the torn-tail
/// fallback).
const KEEP_SEGMENTS: usize = 2;

/// Segment-frame checksum: FNV-1a folded over 8-byte words (byte-wise
/// tail), matching the engine wire format's trailer hash — megabyte
/// checkpoint payloads are summed on every rotation and every recovery
/// scan, so the fold runs at word granularity.
fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().expect("8 bytes"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Frames a checkpoint image into a segment record.
fn seg_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(SEG_MAGIC.len() + 16 + payload.len() + 8);
    buf.extend_from_slice(SEG_MAGIC);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = fnv1a(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Unframes a segment record: returns `(seq, payload)` iff the magic,
/// announced length, and trailer all check out. Total — a torn or
/// corrupt segment is `None`, never a panic.
fn seg_unframe(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let header = SEG_MAGIC.len() + 16;
    if bytes.len() < header + 8 || &bytes[..SEG_MAGIC.len()] != SEG_MAGIC {
        return None;
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    if fnv1a(body) != sum {
        return None;
    }
    let seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    if len != (body.len() - header) as u64 {
        return None;
    }
    Some((seq, &body[header..]))
}

/// Fsyncs a directory so a just-created or just-renamed entry inside it
/// survives power loss. Best-effort on platforms where directories
/// cannot be opened for sync.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Source-side migration phase, journaled before each protocol step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigratePhase {
    /// Handoff decided; the destination may or may not have the offer.
    Intent,
    /// The destination durably holds spec + checkpoint (offer acked);
    /// this daemon will never run the session again.
    Released,
    /// The destination durably committed; the session has exactly one
    /// owner again — the peer.
    Done,
}

impl MigratePhase {
    fn name(self) -> &'static str {
        match self {
            MigratePhase::Intent => "intent",
            MigratePhase::Released => "released",
            MigratePhase::Done => "done",
        }
    }

    fn parse(s: &str) -> Option<MigratePhase> {
        match s {
            "intent" => Some(MigratePhase::Intent),
            "released" => Some(MigratePhase::Released),
            "done" => Some(MigratePhase::Done),
            _ => None,
        }
    }
}

/// The source-side durable migration record (`migrate.json`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrateRecord {
    /// Transfer token: stable across re-drives, the destination's
    /// idempotency key.
    pub token: String,
    /// Destination daemon address (`host:port`).
    pub peer: String,
    /// Current phase.
    pub phase: MigratePhase,
    /// Destination session id, known once the offer is acked.
    pub dst_session: Option<u64>,
}

impl MigrateRecord {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("token".to_owned(), crate::json::s(self.token.clone())),
            ("peer".to_owned(), crate::json::s(self.peer.clone())),
            ("phase".to_owned(), crate::json::s(self.phase.name())),
        ];
        if let Some(d) = self.dst_session {
            pairs.push(("dst_session".to_owned(), Json::UInt(d)));
        }
        Json::Obj(pairs.into_iter().collect())
    }

    fn from_json(j: &Json) -> Option<MigrateRecord> {
        Some(MigrateRecord {
            token: j.get("token")?.as_str()?.to_owned(),
            peer: j.get("peer")?.as_str()?.to_owned(),
            phase: MigratePhase::parse(j.get("phase")?.as_str()?)?,
            dst_session: j.get("dst_session").and_then(Json::as_u64),
        })
    }
}

/// What a recovery scan found, including what it could *not* recover.
/// Skips are never fatal (recovery must always make progress) but they
/// are no longer silent: the daemon surfaces the tallies in its startup
/// line and stats.
#[derive(Default)]
pub struct RecoveryScan {
    /// Interrupted sessions to re-admit, ordered by id.
    pub sessions: Vec<Recovered>,
    /// The next free session id.
    pub next_id: u64,
    /// Session dirs with no `spec.json` at all — a crash between the
    /// directory creation and the atomic spec write.
    pub partial: u64,
    /// Session dirs whose `spec.json` was unreadable or failed
    /// revalidation against the daemon's current limits.
    pub skipped: u64,
    /// Inert uncommitted imports (mid-migration transfers whose source
    /// never sent the durable commit) — kept on disk, never run.
    pub uncommitted: u64,
}

/// One interrupted session found by [`Journal::recover`].
pub struct Recovered {
    /// Session id (allocated by the previous incarnation).
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// The admitted spec.
    pub spec: SessionSpec,
    /// Latest parked checkpoint image, if the session ever parked.
    pub checkpoint: Option<Vec<u8>>,
    /// Interrupted outbound migration (`intent` or `released`): the
    /// daemon must re-drive the handoff, never re-run the session.
    pub migration: Option<MigrateRecord>,
}

impl Journal {
    /// Opens (creating if absent) a journal rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Journal> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Journal { dir })
    }

    /// The journal root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn session_dir(&self, id: u64) -> PathBuf {
        self.dir.join(format!("s{id}"))
    }

    /// Atomic write: temp + fsync + rename + parent-directory fsync, so
    /// readers (including a recovering daemon) never observe a torn file
    /// and the rename itself survives power loss — without the directory
    /// sync, a crash after `rename` returns can still resurface the old
    /// file (or nothing), silently un-acking an acked session.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        match path.parent() {
            Some(dir) => fsync_dir(dir),
            None => Ok(()),
        }
    }

    /// Durably records an admitted session. Called *before* the Admitted
    /// response is sent — the crash-safety contract is "acked implies
    /// recoverable".
    pub fn record_spec(&self, id: u64, tenant: &str, spec: &SessionSpec) -> io::Result<()> {
        let dir = self.session_dir(id);
        fs::create_dir_all(&dir)?;
        let doc = Json::Obj(
            [
                ("tenant".to_owned(), crate::json::s(tenant)),
                ("spec".to_owned(), spec.to_json()),
            ]
            .into_iter()
            .collect(),
        );
        self.write_atomic(&dir.join("spec.json"), doc.to_line().as_bytes())
    }

    /// Numbered checkpoint segments in a session dir, sorted by sequence.
    fn segments(&self, id: u64) -> io::Result<Vec<(u64, PathBuf)>> {
        let dir = self.session_dir(id);
        let mut segs = Vec::new();
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(segs),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(seq) = name
                .to_str()
                .and_then(|n| n.strip_prefix("ckpt-"))
                .and_then(|n| n.strip_suffix(".seg"))
                .and_then(|n| n.parse::<u64>().ok())
            {
                segs.push((seq, entry.path()));
            }
        }
        segs.sort_by_key(|(seq, _)| *seq);
        Ok(segs)
    }

    /// Durably records the latest parked checkpoint image as a fresh
    /// rotating segment, then compacts older segments down to
    /// `KEEP_SEGMENTS`. The write is direct (frame + fsync + dir
    /// fsync): rotation, not rename, provides the crash safety — a torn
    /// segment fails its checksum and recovery falls back to the
    /// predecessor.
    pub fn record_checkpoint(&self, id: u64, bytes: &[u8]) -> io::Result<()> {
        let dir = self.session_dir(id);
        fs::create_dir_all(&dir)?;
        let segs = self.segments(id)?;
        let seq = segs.last().map_or(1, |(s, _)| s + 1);
        let path = dir.join(format!("ckpt-{seq}.seg"));
        {
            let mut f = File::create(&path)?;
            f.write_all(&seg_frame(seq, bytes))?;
            f.sync_all()?;
        }
        fsync_dir(&dir)?;
        // compact only after the new segment is durable: the retained
        // window always holds at least one valid resume point
        if segs.len() + 1 > KEEP_SEGMENTS {
            for (_, old) in &segs[..segs.len() + 1 - KEEP_SEGMENTS] {
                let _ = fs::remove_file(old);
            }
        }
        Ok(())
    }

    /// Loads the latest parked checkpoint image, if any: scans segments
    /// newest-first and returns the first whose frame checksum *and*
    /// zero-copy [`eqp_kahn::CheckpointView`] validation both pass — a
    /// torn tail silently falls back to its predecessor. Reads the
    /// legacy un-segmented `ckpt.bin` as a last resort so journals
    /// written by older daemons still recover.
    pub fn load_checkpoint(&self, id: u64) -> io::Result<Option<Vec<u8>>> {
        for (seq, path) in self.segments(id)?.into_iter().rev() {
            let Ok(raw) = fs::read(&path) else { continue };
            if let Some((stored, payload)) = seg_unframe(&raw) {
                if stored == seq && eqp_kahn::CheckpointView::new(payload).is_ok() {
                    return Ok(Some(payload.to_vec()));
                }
            }
            eprintln!(
                "eqpd: journal: s{id} segment {} is torn or invalid; falling back",
                path.display()
            );
        }
        match fs::read(self.session_dir(id).join("ckpt.bin")) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Durably records the certified result, finishing the session. The
    /// checkpoint segments are dropped afterwards — the verdict
    /// supersedes them.
    pub fn record_result(&self, id: u64, result: &SessionResult) -> io::Result<()> {
        let dir = self.session_dir(id);
        fs::create_dir_all(&dir)?;
        self.write_atomic(
            &dir.join("verdict.json"),
            result.to_json().to_line().as_bytes(),
        )?;
        for (_, path) in self.segments(id)? {
            let _ = fs::remove_file(path);
        }
        match fs::remove_file(dir.join("ckpt.bin")) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Iterates every finished session's journaled result — the fleet
    /// rollup's source. Unreadable or malformed verdicts are skipped.
    pub fn finished_results(&self) -> io::Result<Vec<(u64, SessionResult)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let Some(id) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.strip_prefix('s'))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            if let Ok(Some(result)) = self.load_result(id) {
                out.push((id, result));
            }
        }
        out.sort_by_key(|(id, _)| *id);
        Ok(out)
    }

    /// Loads a finished session's result, if present.
    pub fn load_result(&self, id: u64) -> io::Result<Option<SessionResult>> {
        let path = self.session_dir(id).join("verdict.json");
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let json = Json::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        SessionResult::from_json(&json)
            .map(Some)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed verdict.json"))
    }

    /// Durably records the source-side migration phase.
    pub fn record_migration(&self, id: u64, rec: &MigrateRecord) -> io::Result<()> {
        let dir = self.session_dir(id);
        fs::create_dir_all(&dir)?;
        self.write_atomic(
            &dir.join("migrate.json"),
            rec.to_json().to_line().as_bytes(),
        )
    }

    /// Removes the migration record: the handoff was abandoned before
    /// `released`, so this daemon resumes local ownership.
    pub fn clear_migration(&self, id: u64) -> io::Result<()> {
        match fs::remove_file(self.session_dir(id).join("migrate.json")) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Loads the source-side migration record, if any.
    pub fn load_migration(&self, id: u64) -> io::Result<Option<MigrateRecord>> {
        let text = match fs::read_to_string(self.session_dir(id).join("migrate.json")) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(Json::parse(&text)
            .ok()
            .as_ref()
            .and_then(MigrateRecord::from_json))
    }

    /// Durably records the destination-side import marker. An import
    /// with `committed = false` is inert: recovery will never run it.
    pub fn record_import(&self, id: u64, token: &str, committed: bool) -> io::Result<()> {
        let dir = self.session_dir(id);
        fs::create_dir_all(&dir)?;
        let doc = Json::Obj(
            [
                ("token".to_owned(), crate::json::s(token)),
                ("committed".to_owned(), Json::Bool(committed)),
            ]
            .into_iter()
            .collect(),
        );
        self.write_atomic(&dir.join("import.json"), doc.to_line().as_bytes())
    }

    /// Loads the destination-side import marker: `(token, committed)`.
    pub fn load_import(&self, id: u64) -> io::Result<Option<(String, bool)>> {
        let text = match fs::read_to_string(self.session_dir(id).join("import.json")) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let Ok(doc) = Json::parse(&text) else {
            return Ok(None);
        };
        match (
            doc.get("token").and_then(Json::as_str),
            doc.get("committed").and_then(Json::as_bool),
        ) {
            (Some(t), Some(c)) => Ok(Some((t.to_owned(), c))),
            _ => Ok(None),
        }
    }

    /// Finds an import by its transfer token — the offer's idempotency
    /// lookup. Linear scan: migrations are rare and journals small.
    pub fn find_import(&self, token: &str) -> io::Result<Option<(u64, bool)>> {
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let Some(id) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.strip_prefix('s'))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            if let Some((t, committed)) = self.load_import(id)? {
                if t == token {
                    return Ok(Some((id, committed)));
                }
            }
        }
        Ok(None)
    }

    /// Loads one session's journaled `(tenant, spec)`, revalidated
    /// against `limits`.
    pub fn load_spec(
        &self,
        id: u64,
        limits: &SpecLimits,
    ) -> io::Result<Option<(String, SessionSpec)>> {
        let text = match fs::read_to_string(self.session_dir(id).join("spec.json")) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let Ok(doc) = Json::parse(&text) else {
            return Ok(None);
        };
        let Some(tenant) = doc.get("tenant").and_then(Json::as_str) else {
            return Ok(None);
        };
        let Some(spec_json) = doc.get("spec") else {
            return Ok(None);
        };
        match SessionSpec::from_json_limited(spec_json, limits) {
            Ok(spec) => Ok(Some((tenant.to_owned(), spec))),
            Err(_) => Ok(None),
        }
    }

    /// Scans the journal under the default limits: returns every
    /// interrupted session plus the next free session id. See
    /// [`Journal::recover_scan`] for the tallied form.
    pub fn recover(&self) -> io::Result<(Vec<Recovered>, u64)> {
        let scan = self.recover_scan(&SpecLimits::default())?;
        Ok((scan.sessions, scan.next_id))
    }

    /// Scans the journal: every interrupted session (spec present,
    /// verdict absent) is returned for re-admission; session dirs that
    /// cannot be recovered are counted ([`RecoveryScan::partial`] /
    /// [`RecoveryScan::skipped`]) and logged, never fatal — recovery must
    /// always make progress. Specs are revalidated against `limits`
    /// (this daemon's, which may differ from the writer's).
    pub fn recover_scan(&self, limits: &SpecLimits) -> io::Result<RecoveryScan> {
        let mut scan = RecoveryScan {
            next_id: 1,
            ..RecoveryScan::default()
        };
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix('s'))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            scan.next_id = scan.next_id.max(id + 1);
            let dir = entry.path();
            if dir.join("verdict.json").exists() {
                continue;
            }
            // Uncommitted imports stay inert: the source still owns the
            // session and may re-offer (the token lookup finds this dir)
            // — running it here would create a second owner.
            if let Some((_, committed)) = self.load_import(id).unwrap_or(None) {
                if !committed {
                    scan.uncommitted += 1;
                    continue;
                }
            }
            let migration = self.load_migration(id).unwrap_or(None);
            if let Some(rec) = &migration {
                if rec.phase == MigratePhase::Done {
                    // Migrated away: the peer owns it now.
                    continue;
                }
            }
            let spec_path = dir.join("spec.json");
            if !spec_path.exists() {
                eprintln!(
                    "eqpd: journal: s{id} has no spec.json (crash before the spec write); skipping"
                );
                scan.partial += 1;
                continue;
            }
            fn skip(scan: &mut RecoveryScan, id: u64, why: &str) {
                eprintln!("eqpd: journal: skipping s{id}: {why}");
                scan.skipped += 1;
            }
            let Ok(text) = fs::read_to_string(&spec_path) else {
                skip(&mut scan, id, "spec.json unreadable");
                continue;
            };
            let Ok(doc) = Json::parse(&text) else {
                skip(&mut scan, id, "spec.json is not valid JSON");
                continue;
            };
            let Some(tenant) = doc.get("tenant").and_then(Json::as_str) else {
                skip(&mut scan, id, "spec.json has no tenant");
                continue;
            };
            let Some(spec_json) = doc.get("spec") else {
                skip(&mut scan, id, "spec.json has no spec");
                continue;
            };
            let spec = match SessionSpec::from_json_limited(spec_json, limits) {
                Ok(spec) => spec,
                Err(e) => {
                    skip(&mut scan, id, &format!("spec failed revalidation: {e}"));
                    continue;
                }
            };
            let checkpoint = self.load_checkpoint(id).unwrap_or(None);
            scan.sessions.push(Recovered {
                id,
                tenant: tenant.to_owned(),
                spec,
                checkpoint,
                migration,
            });
        }
        scan.sessions.sort_by_key(|r| r.id);
        Ok(scan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SchedSpec;
    use std::sync::atomic::{AtomicU64, Ordering};

    static STAMP: AtomicU64 = AtomicU64::new(0);

    fn tmp_journal() -> Journal {
        let n = STAMP.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("eqpd-journal-test-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Journal::open(dir).expect("temp journal opens")
    }

    fn spec() -> SessionSpec {
        SessionSpec {
            workload: crate::spec::Workload::Zoo("ticks".to_owned()),
            seed: 1,
            sched: SchedSpec::RoundRobin,
            max_steps: 64,
            capacity: None,
            overflow: eqp_kahn::OverflowPolicy::Block,
            deadline_rounds: None,
            deadline_ms: None,
        }
    }

    /// A real checkpoint image captured at step `at` of the test spec —
    /// segment recovery validates payloads as checkpoint images, so the
    /// tests must park the genuine article.
    fn image(at: usize) -> Vec<u8> {
        let sp = spec();
        let mut net = sp.build_network(sp.seed);
        let mut sched = sp.sched.build();
        let with = eqp_kahn::RunWith {
            checkpoint_at: Some(at),
            ..eqp_kahn::RunWith::default()
        };
        let ckpt = net
            .run_with(&mut &mut *sched, sp.run_options(64), with)
            .checkpoint;
        eqp_kahn::encode_checkpoint(&ckpt.expect("run reaches the capture step")).expect("encodes")
    }

    #[test]
    fn lifecycle_spec_checkpoint_verdict() {
        let j = tmp_journal();
        j.record_spec(7, "alice", &spec()).expect("spec");
        j.record_checkpoint(7, &image(5)).expect("ckpt");
        j.record_checkpoint(7, &image(9)).expect("ckpt rewrite");
        assert_eq!(j.load_checkpoint(7).expect("io"), Some(image(9)));

        let (interrupted, next) = j.recover().expect("scan");
        assert_eq!(interrupted.len(), 1);
        assert_eq!(interrupted[0].id, 7);
        assert_eq!(interrupted[0].tenant, "alice");
        assert_eq!(interrupted[0].spec, spec());
        assert_eq!(interrupted[0].checkpoint, Some(image(9)));
        assert_eq!(next, 8);

        let result = crate::session::SessionResult {
            verdict: "SmoothPrefix".to_owned(),
            conformant: true,
            status: "step bound hit".to_owned(),
            steps: 64,
            rounds: 9,
            trace_len: 40,
            faults: 0,
            trace_hash: 0xabc,
            wall_deadline_expired: false,
            sketches: None,
        };
        j.record_result(7, &result).expect("verdict");
        assert_eq!(j.load_result(7).expect("io"), Some(result));
        assert_eq!(j.load_checkpoint(7).expect("io"), None, "superseded");
        let (interrupted, _) = j.recover().expect("scan");
        assert!(
            interrupted.is_empty(),
            "finished sessions are not recovered"
        );
        let finished = j.finished_results().expect("scan");
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0].0, 7);
        let _ = fs::remove_dir_all(j.dir());
    }

    #[test]
    fn segments_rotate_and_compact() {
        let j = tmp_journal();
        j.record_spec(2, "dana", &spec()).expect("spec");
        for at in [3, 5, 7, 9, 11] {
            j.record_checkpoint(2, &image(at)).expect("ckpt");
        }
        let segs = j.segments(2).expect("scan");
        assert_eq!(
            segs.len(),
            KEEP_SEGMENTS,
            "compaction keeps the newest {KEEP_SEGMENTS}"
        );
        assert_eq!(segs.last().expect("newest").0, 5, "sequence keeps rising");
        assert_eq!(j.load_checkpoint(2).expect("io"), Some(image(11)));
        let _ = fs::remove_dir_all(j.dir());
    }

    #[test]
    fn torn_newest_segment_falls_back_to_its_predecessor() {
        let j = tmp_journal();
        j.record_spec(3, "erin", &spec()).expect("spec");
        j.record_checkpoint(3, &image(5)).expect("ckpt");
        j.record_checkpoint(3, &image(9)).expect("ckpt");
        // tear the newest segment mid-write: truncate half its bytes
        let (_, newest) = j.segments(3).expect("scan").pop().expect("has segments");
        let raw = fs::read(&newest).expect("read");
        fs::write(&newest, &raw[..raw.len() / 2]).expect("tear");
        assert_eq!(
            j.load_checkpoint(3).expect("io"),
            Some(image(5)),
            "newest-valid-wins falls back past the torn tail"
        );
        // a valid frame wrapping a non-checkpoint payload is also skipped
        fs::write(&newest, seg_frame(2, b"not a checkpoint")).expect("rewrite");
        assert_eq!(j.load_checkpoint(3).expect("io"), Some(image(5)));
        // with every segment gone there is nothing to resume
        for (_, p) in j.segments(3).expect("scan") {
            fs::remove_file(p).expect("rm");
        }
        assert_eq!(j.load_checkpoint(3).expect("io"), None);
        let _ = fs::remove_dir_all(j.dir());
    }

    #[test]
    fn recovery_skips_and_tallies_garbage_entries() {
        let j = tmp_journal();
        fs::create_dir_all(j.dir().join("s3")).expect("dir");
        fs::write(j.dir().join("s3/spec.json"), b"{not json").expect("write");
        // A crash between create_dir and the atomic spec write leaves an
        // empty session dir: partial, not skipped.
        fs::create_dir_all(j.dir().join("s4")).expect("dir");
        fs::create_dir_all(j.dir().join("junk")).expect("dir");
        j.record_spec(5, "bob", &spec()).expect("spec");
        let scan = j
            .recover_scan(&crate::spec::SpecLimits::default())
            .expect("scan never fails on garbage");
        assert_eq!(scan.sessions.len(), 1);
        assert_eq!(scan.sessions[0].id, 5);
        assert_eq!(scan.next_id, 6);
        assert_eq!(scan.skipped, 1, "malformed spec.json");
        assert_eq!(scan.partial, 1, "dir without spec.json");
        let _ = fs::remove_dir_all(j.dir());
    }

    #[test]
    fn recovery_revalidates_against_current_limits() {
        let j = tmp_journal();
        j.record_spec(9, "carol", &spec()).expect("spec");
        // A daemon restarted with a tighter step ceiling than the spec's
        // max_steps=64 refuses to resurrect it — and says so.
        let tight = crate::spec::SpecLimits::default().with_session_steps(10);
        let scan = j.recover_scan(&tight).expect("scan");
        assert!(scan.sessions.is_empty());
        assert_eq!(scan.skipped, 1);
        let _ = fs::remove_dir_all(j.dir());
    }
}
