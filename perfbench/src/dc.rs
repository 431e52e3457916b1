//! `dc_routed`: TPC-A debit-credit with CICS affinity routing.
//!
//! Two members, one client each. Every client owns one branch, so its
//! branch and teller records are only ever locked by its own member; 15%
//! of accounts belong to the other branch. Real conflicts are therefore
//! rare and the run is steady, while the commit path — WAL forces, page
//! P-locks, CF cache writes with cross-invalidation, castout — and IRLM
//! re-grants and false-contention negotiation carry the load.

use crate::bench::Workload;
use crate::dbrig::{DbRig, LOG_BUDGET_PCT, TRAN};
use crate::metrics::Counters;
use crate::trace::span;
use std::cell::Cell;
use std::sync::Arc;
use sysplex_db::group::GroupConfig;
use sysplex_db::{Database, DbResult, Page, Txn};
use sysplex_workload::debitcredit::{DebitCreditConfig, DebitCreditGenerator, DebitCreditTxn, KeyLayout};

/// One member and one client per branch.
const CLIENTS: u64 = 2;
/// The table fits the default 256-frame local pool.
const PAGES: u64 = 256;
/// History records per client. A bounded ring keeps every page image the
/// same size (under 4 KiB) for the whole run.
const HISTORY_RING: u64 = 2048;

fn schema() -> DebitCreditConfig {
    DebitCreditConfig {
        branches: CLIENTS,
        tellers_per_branch: 10,
        accounts_per_branch: 10_000,
        remote_fraction: 0.15,
    }
}

/// Key of history slot `seq` of `client`'s ring.
fn history_key(layout: &KeyLayout, client: u64, seq: u64) -> u64 {
    layout.history_base() + client * HISTORY_RING + seq % HISTORY_RING
}

/// The input of one transaction, as the handler needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcInput {
    /// The generated transaction.
    pub txn: DebitCreditTxn,
    /// Its history record's key.
    pub history: u64,
}

/// One client's routed stream: the generator's transactions whose home
/// branch is this client's own.
pub struct DcStream {
    client: u64,
    layout: KeyLayout,
    generator: DebitCreditGenerator,
}

impl DcStream {
    /// The stream of `client` for `seed`.
    pub fn new(seed: u64, client: u64) -> Self {
        let generator = DebitCreditGenerator::new(schema(), seed ^ (client << 56));
        DcStream { client, layout: generator.layout(), generator }
    }

    /// The next transaction routed to this client.
    pub fn next_input(&mut self) -> DcInput {
        loop {
            let txn = self.generator.next_txn();
            if txn.home_branch == self.client {
                return DcInput { txn, history: history_key(&self.layout, self.client, txn.history_seq) };
            }
        }
    }
}

thread_local! {
    /// The input the region's handler runs: `CicsRegion::execute_local`
    /// runs the handler on the calling client's thread.
    static INPUT: Cell<Option<DcInput>> = const { Cell::new(None) };
}

fn balance(value: Option<Vec<u8>>, key: u64) -> i64 {
    let v = value.unwrap_or_else(|| panic!("record {key} was preloaded"));
    i64::from_be_bytes(v[..8].try_into().expect("8-byte balance"))
}

/// One attempt of the debit-credit program: three read-modify-writes in a
/// fixed key order (account, teller, branch) and a history insert.
fn program(layout: KeyLayout) -> impl Fn(&Database, &mut Txn) -> DbResult<()> + Send + Sync {
    move |db, txn| {
        let input = INPUT.with(Cell::get).expect("client sets its input before execute_local");
        let t = input.txn;
        span("db.attempt", || {
            for key in [
                layout.account(t.account_branch, t.account),
                layout.teller(t.home_branch, t.teller),
                layout.branch(t.home_branch),
            ] {
                let value = span("db.read", || db.read(txn, key))?;
                let updated = balance(value, key) + t.delta;
                span("db.write", || db.write(txn, key, Some(&updated.to_be_bytes())))?;
            }
            let mut history = [0u8; 16];
            history[..8].copy_from_slice(&t.delta.to_be_bytes());
            history[8..].copy_from_slice(&t.history_seq.to_be_bytes());
            span("db.write", || db.write(txn, input.history, Some(&history)))
        })
    }
}

/// One client: its member, its stream and what it committed.
pub struct DcClient {
    index: usize,
    stream: DcStream,
    /// Sum of the deltas of committed transactions.
    pub committed_delta: i64,
}

/// The `dc_routed` workload.
pub struct DcRouted;

impl Workload for DcRouted {
    const ROUND_OPS: u64 = 4_000;
    type Rig = DbRig;
    type Client = DcClient;

    fn setup(&self, seed: u64) -> Result<(DbRig, Vec<DcClient>), String> {
        let layout = KeyLayout::new(schema());
        let keys = layout.history_base() + CLIENTS * HISTORY_RING;
        let preload = |p: u64| {
            let mut page = Page::new();
            for key in (p..keys).step_by(PAGES as usize) {
                let value: &[u8] = if key < layout.history_base() { &[0; 8] } else { &[0; 16] };
                page.set(key, value);
            }
            page
        };
        // The default lock table: false contention and its XCF negotiation
        // are part of what this workload measures.
        let lock_entries = GroupConfig::default().lock_entries;
        let rig = DbRig::build(CLIENTS as u8, PAGES, lock_entries, preload, Arc::new(program(layout)))?;
        let clients = (0..CLIENTS)
            .map(|c| DcClient { index: c as usize, stream: DcStream::new(seed, c), committed_delta: 0 })
            .collect();
        Ok((rig, clients))
    }

    fn op(&self, rig: &DbRig, client: &mut DcClient) -> Result<(), String> {
        let input = client.stream.next_input();
        INPUT.with(|slot| slot.set(Some(input)));
        span("tm.execute", || rig.regions[client.index].execute_local(TRAN)).map_err(|e| e.to_string())?;
        client.committed_delta += input.txn.delta;
        Ok(())
    }

    fn counters(&self, rig: &DbRig) -> Counters {
        rig.counters()
    }

    fn exhausted(&self, rig: &DbRig) -> bool {
        rig.log_used_pct() >= LOG_BUDGET_PCT
    }

    fn check(&self, rig: &DbRig, clients: &[DcClient]) -> Result<(), String> {
        let expected: i64 = clients.iter().map(|c| c.committed_delta).sum();
        check_ledger(ledger(rig)?, expected)?;
        rig.check_quiesced()
    }

    fn teardown(&self, rig: DbRig) {
        rig.teardown();
    }
}

/// Σaccounts, Σtellers and Σbranches of the committed table, read page by
/// page through a member's coherent buffer pool.
fn ledger(rig: &DbRig) -> Result<[i64; 3], String> {
    let cfg = schema();
    let layout = KeyLayout::new(cfg);
    let first_account = layout.account(0, 0);
    let mut sums = [0i64; 3];
    for p in 0..PAGES {
        let page = rig.members[0].buffers().get_page(p).map_err(|e| format!("audit page {p}: {e}"))?;
        for (key, value) in page.iter() {
            let class = if key >= layout.history_base() {
                continue;
            } else if key >= first_account {
                0
            } else if key >= cfg.branches {
                1
            } else {
                2
            };
            sums[class] +=
                i64::from_be_bytes(value[..8].try_into().map_err(|_| format!("record {key} is short"))?);
        }
    }
    Ok(sums)
}

/// The books balance: every ledger moved by exactly the committed deltas.
fn check_ledger([accounts, tellers, branches]: [i64; 3], expected: i64) -> Result<(), String> {
    if accounts == expected && tellers == expected && branches == expected {
        Ok(())
    } else {
        Err(format!(
            "books do not balance: accounts {accounts}, tellers {tellers}, branches {branches}, committed deltas {expected}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::run_round;

    #[test]
    fn streams_are_routed_and_repeat_per_seed() {
        let take = |seed, client| {
            let mut s = DcStream::new(seed, client);
            (0..500).map(|_| s.next_input()).collect::<Vec<_>>()
        };
        let a = take(7, 1);
        assert_eq!(a, take(7, 1));
        assert_ne!(a, take(8, 1));
        assert_ne!(a, take(7, 0));
        assert!(a.iter().all(|i| i.txn.home_branch == 1));
        let remote = a.iter().filter(|i| i.txn.is_remote()).count();
        assert!((30..120).contains(&remote), "about 15% remote: {remote}");
        let layout = KeyLayout::new(schema());
        assert!(a
            .iter()
            .all(|i| (layout.history_base() + HISTORY_RING..layout.history_base() + 2 * HISTORY_RING)
                .contains(&i.history)));
    }

    #[test]
    fn preloaded_pages_fit_a_block() {
        let (rig, _) = DcRouted.setup(1).unwrap();
        for p in 0..PAGES {
            assert!(rig.group.store.read_image(0, p).unwrap().len() < 4096);
        }
        assert_eq!(ledger(&rig).unwrap(), [0, 0, 0]);
        DcRouted.teardown(rig);
    }

    #[test]
    fn smoke_run_balances_and_checks_catch_planted_faults() {
        let round = run_round(&DcRouted, 3, true).unwrap();
        assert_eq!(round.failed, 0, "{:?}", round.first_error);
        assert!(round.ok > 0);
        round.check.unwrap();
        assert!(round.spans["tm.execute"].count >= round.ok);
        assert_eq!(round.spans["db.read"].count, 3 * round.spans["db.attempt"].count);

        let (rig, mut clients) = DcRouted.setup(4).unwrap();
        for c in clients.iter_mut() {
            for _ in 0..50 {
                DcRouted.op(&rig, c).unwrap();
            }
        }
        DcRouted.check(&rig, &clients).unwrap();

        // A committed update that no client accounted for.
        let layout = KeyLayout::new(schema());
        let key = layout.account(0, 5);
        rig.members[1]
            .run(0, |db, txn| {
                let v = balance(db.read(txn, key)?, key);
                db.write(txn, key, Some(&(v + 1).to_be_bytes()))
            })
            .unwrap();
        let err = DcRouted.check(&rig, &clients).unwrap_err();
        assert!(err.contains("books do not balance"), "{err}");

        // A transaction left open on a member.
        let mut open = rig.members[0].begin();
        let err = rig.check_quiesced().unwrap_err();
        assert!(err.contains("open transaction"), "{err}");
        rig.members[0].abort(&mut open).unwrap();
        rig.check_quiesced().unwrap();
        DcRouted.teardown(rig);
    }
}
