//! `browse`: read-mostly transactions over a table sixteen times the
//! local buffer pool.
//!
//! Most page reads miss the pool, so the read-side coherency path carries
//! the load: CF register-read, refresh from the global cache or from DASD,
//! frame steal, and Shared lock grants at the CF. One transaction in
//! twenty blindly updates one record, which keeps cross-invalidation and
//! castout alive while the log and P-lock traffic stay light.

use crate::bench::Workload;
use crate::dbrig::{DbRig, TRAN};
use crate::metrics::Counters;
use crate::trace::span;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::Arc;
use sysplex_db::{Database, DbResult, Page, Txn};
use sysplex_workload::oltp::{OltpConfig, OltpGenerator};

const CLIENTS: u64 = 2;
/// Sixteen times the default 256-frame local pool.
const PAGES: u64 = 4096;
/// About 49 rows of 32 bytes per page.
const ROWS: u64 = 200_000;
const VALUE_LEN: usize = 32;
const READS_PER_TXN: usize = 4;
const WRITE_FRACTION: f64 = 0.05;
const SKEW: f64 = 0.6;
/// Sixteen times the default lock table. With the default, about 7% of
/// transactions meet false contention and negotiate with the peer over
/// XCF, and about 1% of all transactions then wait over 180 µs for a
/// thread wake-up, which puts p99 on the edge of that slow mode where it
/// swings with host load. The larger table halves the negotiations and
/// moves p99 off the edge. Negotiation at the default table is left to
/// `dc_routed`, which is not a benchmark workload while D3 stands (NOTES.md).
const LOCK_ENTRIES: usize = 1 << 16;

/// The value every row holds before any writer touches it.
fn preload_value(key: u64) -> [u8; VALUE_LEN] {
    let mut v = [0x5a; VALUE_LEN];
    v[..8].copy_from_slice(b"PRELOAD:");
    v[8..16].copy_from_slice(&key.to_be_bytes());
    v
}

/// The input of one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrowseInput {
    /// Read these keys.
    Read([u64; READS_PER_TXN]),
    /// Blindly replace one record's value.
    Write(u64, [u8; VALUE_LEN]),
}

/// One client's op stream: `OltpGenerator` read and write shapes mixed
/// 95:5 by a third seeded stream.
pub struct BrowseStream {
    mix: StdRng,
    reads: OltpGenerator,
    writes: OltpGenerator,
}

impl BrowseStream {
    /// The stream of `client` for `seed`.
    pub fn new(seed: u64, client: u64) -> Self {
        let seed = seed ^ (client << 56);
        let shape = |reads_per_txn, writes_per_txn| OltpConfig {
            keys: ROWS,
            reads_per_txn,
            writes_per_txn,
            skew: SKEW,
            value_len: VALUE_LEN,
        };
        BrowseStream {
            mix: StdRng::seed_from_u64(seed),
            reads: OltpGenerator::new(shape(READS_PER_TXN, 0), seed.wrapping_add(1)),
            writes: OltpGenerator::new(shape(0, 1), seed.wrapping_add(2)),
        }
    }

    /// The next transaction.
    pub fn next_input(&mut self) -> BrowseInput {
        if self.mix.random::<f64>() < WRITE_FRACTION {
            let (key, value) = self.writes.next_txn().writes.pop().expect("one write per update");
            BrowseInput::Write(key, value.try_into().expect("VALUE_LEN-byte payload"))
        } else {
            BrowseInput::Read(self.reads.next_txn().reads.try_into().expect("READS_PER_TXN reads"))
        }
    }
}

thread_local! {
    /// The input the region's handler runs (handlers run on the calling
    /// client's thread).
    static INPUT: Cell<Option<BrowseInput>> = const { Cell::new(None) };
    /// Values read that are not the preload, for the end-of-round check.
    static WRITTEN_READS: RefCell<Vec<(u64, Vec<u8>)>> = const { RefCell::new(Vec::new()) };
}

fn program(db: &Database, txn: &mut Txn) -> DbResult<()> {
    let input = INPUT.with(Cell::get).expect("client sets its input before execute_local");
    span("db.attempt", || match input {
        BrowseInput::Read(keys) => {
            for key in keys {
                let value = span("db.read", || db.read(txn, key))?.unwrap_or_default();
                if value != preload_value(key) {
                    WRITTEN_READS.with(|r| r.borrow_mut().push((key, value)));
                }
            }
            Ok(())
        }
        BrowseInput::Write(key, value) => span("db.write", || db.write(txn, key, Some(&value))),
    })
}

/// One client: its member, its stream and its records.
pub struct BrowseClient {
    index: usize,
    stream: BrowseStream,
    /// Values this client's writers committed.
    committed: HashSet<(u64, Vec<u8>)>,
    /// Values read that were not the preload.
    written_reads: HashSet<(u64, Vec<u8>)>,
}

impl BrowseClient {
    fn run(&mut self, rig: &DbRig, input: BrowseInput) -> Result<(), String> {
        INPUT.with(|slot| slot.set(Some(input)));
        let result = span("tm.execute", || rig.regions[self.index].execute_local(TRAN));
        self.written_reads.extend(WRITTEN_READS.with(|r| std::mem::take(&mut *r.borrow_mut())));
        result.map_err(|e| e.to_string())?;
        if let BrowseInput::Write(key, value) = input {
            self.committed.insert((key, value.to_vec()));
        }
        Ok(())
    }
}

/// The `browse` workload.
pub struct Browse;

impl Workload for Browse {
    const ROUND_OPS: u64 = 20_000;
    type Rig = DbRig;
    type Client = BrowseClient;

    fn setup(&self, seed: u64) -> Result<(DbRig, Vec<BrowseClient>), String> {
        let preload = |p: u64| {
            let mut page = Page::new();
            for key in (p..ROWS).step_by(PAGES as usize) {
                page.set(key, &preload_value(key));
            }
            page
        };
        let rig = DbRig::build(CLIENTS as u8, PAGES, LOCK_ENTRIES, preload, Arc::new(program))?;
        let clients = (0..CLIENTS)
            .map(|c| BrowseClient {
                index: c as usize,
                stream: BrowseStream::new(seed, c),
                committed: HashSet::new(),
                written_reads: HashSet::new(),
            })
            .collect();
        Ok((rig, clients))
    }

    fn op(&self, rig: &DbRig, client: &mut BrowseClient) -> Result<(), String> {
        let input = client.stream.next_input();
        client.run(rig, input)
    }

    fn counters(&self, rig: &DbRig) -> Counters {
        rig.counters()
    }

    fn check(&self, rig: &DbRig, clients: &[BrowseClient]) -> Result<(), String> {
        let committed: HashSet<&(u64, Vec<u8>)> = clients.iter().flat_map(|c| &c.committed).collect();
        for read in clients.iter().flat_map(|c| &c.written_reads) {
            if !committed.contains(read) {
                return Err(format!(
                    "record {} read {:02x?}: neither the preload nor a committed write",
                    read.0, read.1
                ));
            }
        }
        rig.check_quiesced()
    }

    fn teardown(&self, rig: DbRig) {
        rig.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::run_round;

    #[test]
    fn streams_repeat_per_seed_and_mix_reads_and_writes() {
        let take = |seed, client| {
            let mut s = BrowseStream::new(seed, client);
            (0..2000).map(|_| s.next_input()).collect::<Vec<_>>()
        };
        let a = take(11, 0);
        assert_eq!(a, take(11, 0));
        assert_ne!(a, take(12, 0));
        assert_ne!(a, take(11, 1));
        let writes = a.iter().filter(|i| matches!(i, BrowseInput::Write(..))).count();
        assert!((50..160).contains(&writes), "about 5% writes: {writes}");
        assert!(a.iter().all(|i| match i {
            BrowseInput::Read(keys) => keys.iter().all(|&k| k < ROWS),
            BrowseInput::Write(k, _) => *k < ROWS,
        }));
    }

    #[test]
    fn smoke_run_reads_only_committed_values_and_the_check_catches_a_stray_one() {
        let round = run_round(&Browse, 5, true).unwrap();
        assert_eq!(round.failed, 0, "{:?}", round.first_error);
        assert!(round.ok > 0);
        round.check.unwrap();
        assert!(round.layers["buf.dasd_reads"] > 0, "the table does not fit the pool");

        let (rig, mut clients) = Browse.setup(6).unwrap();
        for _ in 0..200 {
            Browse.op(&rig, &mut clients[0]).unwrap();
        }
        // Write-then-read of one key is visible and accepted.
        let value = [7u8; VALUE_LEN];
        clients[1].run(&rig, BrowseInput::Write(42, value)).unwrap();
        clients[0].run(&rig, BrowseInput::Read([42, 1, 2, 3])).unwrap();
        Browse.check(&rig, &clients).unwrap();

        // A value no client committed, planted behind the clients' backs.
        rig.members[1].run(0, |db, txn| db.write(txn, 43, Some(b"garbage"))).unwrap();
        clients[0].run(&rig, BrowseInput::Read([43, 1, 2, 3])).unwrap();
        let err = Browse.check(&rig, &clients).unwrap_err();
        assert!(err.contains("record 43"), "{err}");
        Browse.teardown(rig);
    }
}
