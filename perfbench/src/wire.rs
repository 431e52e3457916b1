//! `cf_wire`: CF commands over TCP, without the database.
//!
//! Two member sessions talk to an in-process `SysplexServer` on loopback.
//! Each operation is a fixed six-command sequence on resources no other
//! session touches, so every command succeeds and the time goes to the
//! stop-and-wait transport, the codec and the server's dispatch.

use crate::bench::{self, Workload};
use crate::metrics::Counters;
use crate::trace::span;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use sysplex_core::cache::{BlockName, CacheParams, WriteKind};
use sysplex_core::facility::CouplingFacility;
use sysplex_core::list::{DequeueEnd, ListParams, LockCondition, WritePosition};
use sysplex_core::lock::{LockMode, LockParams};
use sysplex_core::transport::{RemoteCacheConnection, RemoteListConnection, RemoteLockConnection};
use sysplex_core::SystemId;
use sysplex_services::sysplex::{Sysplex, SysplexConfig};
use sysplex_services::transport::{RemoteSysplex, SysplexServer};

const CLIENTS: usize = 2;
/// Lock-table entries; each session owns a disjoint half.
const LOCK_ENTRIES: usize = 4096;
/// Cache blocks each session cycles through.
const BLOCKS_PER_CLIENT: u64 = 64;
/// A page-sized cache write.
const BLOCK_BYTES: usize = 4096;
const LIST_ENTRY_BYTES: usize = 64;

const LOCK: &str = "BENCH_LOCK";
const CACHE: &str = "BENCH_GBP";
const LIST: &str = "BENCH_LIST";

/// The inputs of one six-command sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireInput {
    /// Lock-table entry to lock and release.
    pub lock_entry: usize,
    /// Cache block to read and then overwrite.
    pub block: u64,
    /// Stamp written into the block and the list entry.
    pub stamp: u64,
}

/// One session's op stream.
pub struct WireStream {
    client: usize,
    rng: StdRng,
}

impl WireStream {
    /// The stream of `client` for `seed`.
    pub fn new(seed: u64, client: usize) -> Self {
        WireStream { client, rng: StdRng::seed_from_u64(seed ^ ((client as u64) << 56)) }
    }

    /// The next sequence's inputs, within this session's own resources.
    pub fn next_input(&mut self) -> WireInput {
        let span = LOCK_ENTRIES / CLIENTS;
        WireInput {
            lock_entry: self.client * span + self.rng.random_range(0..span),
            block: self.client as u64 * BLOCKS_PER_CLIENT + self.rng.random_range(0..BLOCKS_PER_CLIENT),
            stamp: self.rng.random(),
        }
    }
}

/// One member session and its structure connections.
pub struct WireClient {
    index: usize,
    stream: WireStream,
    session: Option<RemoteSysplex>,
    lock: RemoteLockConnection,
    cache: RemoteCacheConnection,
    list: RemoteListConnection,
    /// Stamp last written to each of this session's blocks.
    written: Vec<Option<u64>>,
    block: Vec<u8>,
    /// First wrong answer, if any.
    pub violation: Option<String>,
}

impl WireClient {
    fn run(&mut self, input: WireInput) -> Result<(), String> {
        let err = |call: &'static str| move |e: sysplex_core::CfError| format!("{call}: {e}");
        let granted =
            span("wire.lock_request", || self.lock.request_lock(input.lock_entry, LockMode::Exclusive))
                .map_err(err("lock request"))?;
        if !granted.is_granted() {
            self.violation.get_or_insert(format!("lock entry {} not granted: {granted:?}", input.lock_entry));
            return Ok(());
        }
        let name = BlockName::from_parts(1, input.block);
        let slot = (input.block % BLOCKS_PER_CLIENT) as usize;
        let read = span("wire.register_read", || self.cache.register_read(name, slot as u32))
            .map_err(err("register read"))?;
        let seen = read.data.as_ref().map(|d| u64::from_be_bytes(d[..8].try_into().expect("stamped block")));
        if seen != self.written[slot] {
            self.violation.get_or_insert(format!(
                "block {} read stamp {seen:?}, wrote {:?}",
                input.block, self.written[slot]
            ));
        }
        self.block[..8].copy_from_slice(&input.stamp.to_be_bytes());
        span("wire.cache_write", || self.cache.write_invalidate(name, &self.block, WriteKind::ChangedData))
            .map_err(err("cache write"))?;
        self.written[slot] = Some(input.stamp);
        let data = [input.stamp.to_be_bytes(); LIST_ENTRY_BYTES / 8].concat();
        let header = self.index;
        let id = span("wire.enqueue", || {
            self.list.enqueue(header, input.stamp, &data, WritePosition::Tail, LockCondition::None)
        })
        .map_err(err("list enqueue"))?;
        let taken = span("wire.take", || self.list.take(header, DequeueEnd::Head, LockCondition::None))
            .map_err(err("list take"))?;
        if taken.as_ref().map(|e| (e.id, &e.data)) != Some((id, &data)) {
            self.violation.get_or_insert(format!("take returned {taken:?}, enqueued {id:?}"));
        }
        span("wire.release", || self.lock.release_lock(input.lock_entry)).map_err(err("lock release"))
    }
}

/// The served sysplex.
pub struct WireRig {
    cf: Arc<CouplingFacility>,
    server: SysplexServer,
    /// Keeps the served sysplex alive for the round.
    _plex: Arc<Sysplex>,
}

/// The `cf_wire` workload.
pub struct CfWire;

impl Workload for CfWire {
    const ROUND_OPS: u64 = 4_000;
    type Rig = WireRig;
    type Client = WireClient;

    fn setup(&self, seed: u64) -> Result<(WireRig, Vec<WireClient>), String> {
        let mut config = SysplexConfig::functional("WIREPLEX");
        // Sessions issue commands, not pulses: status monitoring would
        // fence them. SFM is not what this workload measures.
        config.heartbeat.auto_failure = false;
        let plex = Sysplex::new(config);
        let cf = plex.add_cf("CF01");
        let cf_err = |e: sysplex_core::CfError| e.to_string();
        cf.allocate_lock_structure(LOCK, LockParams::with_entries(LOCK_ENTRIES)).map_err(cf_err)?;
        cf.allocate_cache_structure(CACHE, CacheParams::store_in(2 * CLIENTS * BLOCKS_PER_CLIENT as usize))
            .map_err(cf_err)?;
        cf.allocate_list_structure(LIST, ListParams::with_headers(CLIENTS)).map_err(cf_err)?;
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").map_err(|e| format!("server: {e}"))?;
        let mut clients = Vec::new();
        for index in 0..CLIENTS {
            let session = RemoteSysplex::connect(
                server.local_addr(),
                SystemId::new(index as u8),
                &format!("SYS{index}"),
                100.0,
            )
            .map_err(|e| format!("connect: {e}"))?;
            clients.push(WireClient {
                index,
                stream: WireStream::new(seed, index),
                lock: session.connect_lock(LOCK).map_err(cf_err)?,
                cache: session.connect_cache(CACHE, BLOCKS_PER_CLIENT as usize).map_err(cf_err)?,
                list: session.connect_list(LIST, 1).map_err(cf_err)?,
                session: Some(session),
                written: vec![None; BLOCKS_PER_CLIENT as usize],
                block: vec![0xa5; BLOCK_BYTES],
                violation: None,
            });
        }
        Ok((WireRig { cf, server, _plex: plex }, clients))
    }

    fn op(&self, _rig: &WireRig, client: &mut WireClient) -> Result<(), String> {
        let input = client.stream.next_input();
        client.run(input)
    }

    fn counters(&self, rig: &WireRig) -> Counters {
        let mut c = Counters::new();
        bench::class_counters(&mut c, rig.cf.command_stats());
        c
    }

    fn check(&self, rig: &WireRig, clients: &[WireClient]) -> Result<(), String> {
        for c in clients {
            if let Some(v) = &c.violation {
                return Err(format!("session {}: {v}", c.index));
            }
            let session = c.session.as_ref().expect("session open until teardown");
            bench::reconcile(&format!("session {} meter", c.index), session.meter().stats())?;
        }
        bench::reconcile("CF01", rig.cf.command_stats())
    }

    fn teardown(&self, rig: WireRig) {
        drop(rig.server);
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            let _ = session.goodbye();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::run_round;

    #[test]
    fn streams_repeat_per_seed_and_stay_on_own_resources() {
        let take = |seed, client| {
            let mut s = WireStream::new(seed, client);
            (0..500).map(|_| s.next_input()).collect::<Vec<_>>()
        };
        let a = take(9, 1);
        assert_eq!(a, take(9, 1));
        assert_ne!(a, take(10, 1));
        assert!(a.iter().all(|i| (2048..4096).contains(&i.lock_entry) && (64..128).contains(&i.block)));
        assert!(take(9, 0).iter().all(|i| i.lock_entry < 2048 && i.block < 64));
    }

    #[test]
    fn smoke_run_passes_and_checks_catch_planted_faults() {
        let round = run_round(&CfWire, 2, true).unwrap();
        assert_eq!(round.failed, 0, "{:?}", round.first_error);
        assert!(round.ok > 0);
        round.check.unwrap();
        assert_eq!(round.spans["wire.take"].count, round.spans["wire.enqueue"].count);

        let (rig, mut clients) = CfWire.setup(3).unwrap();
        for c in clients.iter_mut() {
            for _ in 0..20 {
                CfWire.op(&rig, c).unwrap();
            }
        }
        CfWire.check(&rig, &clients).unwrap();

        // A foreign holder on the session's next lock entry.
        let input = WireStream::new(3, 0).next_input();
        let intruder = clients[1].session.as_ref().unwrap().connect_lock(LOCK).unwrap();
        assert!(intruder.request_lock(input.lock_entry, LockMode::Exclusive).unwrap().is_granted());
        clients[0].run(input).unwrap();
        let err = CfWire.check(&rig, &clients).unwrap_err();
        assert!(err.contains("not granted"), "{err}");
        intruder.release_lock(input.lock_entry).unwrap();
        clients[0].violation = None;

        // A stray entry queued ahead of the one the session enqueues.
        clients[0].list.enqueue(0, 1, b"stray", WritePosition::Head, LockCondition::None).unwrap();
        CfWire.op(&rig, &mut clients[0]).unwrap();
        let err = CfWire.check(&rig, &clients).unwrap_err();
        assert!(err.contains("take returned"), "{err}");
        drop(clients);
        CfWire.teardown(rig);
    }
}
