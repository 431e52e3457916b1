//! The data-sharing stack both database workloads run on: one CF, instant
//! DASD, one member per client, each with a CICS region and a castout
//! daemon, over a table preloaded straight onto DASD.

use crate::metrics::Counters;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use sysplex_core::facility::{CfConfig, CouplingFacility};
use sysplex_core::SystemId;
use sysplex_dasd::farm::DasdFarm;
use sysplex_dasd::volume::IoModel;
use sysplex_db::castout::{CastoutConfig, CastoutDaemon};
use sysplex_db::group::{DataSharingGroup, GroupConfig};
use sysplex_db::{Database, Page};
use sysplex_services::system::{System, SystemConfig};
use sysplex_services::timer::SysplexTimer;
use sysplex_services::wlm::{ServiceClass, Wlm};
use sysplex_services::xcf::Xcf;
use sysplex_subsys::tm::{CicsRegion, TranDef, TranHandler};

/// The one transaction every region defines; its handler reads the
/// client's current input from a thread-local slot.
pub const TRAN: &str = "BENCH";

/// Deadlock breaker, as in the `bank_oltp` example.
const LOCK_TIMEOUT: Duration = Duration::from_millis(200);

/// A round ends before any member's log passes this share of its volume:
/// checkpoints never reuse log blocks, so a member that fills its log
/// fails every later commit (see NOTES.md, D1).
pub const LOG_BUDGET_PCT: f64 = 60.0;

/// The assembled stack.
pub struct DbRig {
    cf: Arc<CouplingFacility>,
    /// The data-sharing group.
    pub group: Arc<DataSharingGroup>,
    /// One database member per client, in client order.
    pub members: Vec<Arc<Database>>,
    /// One CICS region per member.
    pub regions: Vec<Arc<CicsRegion>>,
    systems: Vec<Arc<System>>,
    daemons: Vec<CastoutDaemon>,
}

impl DbRig {
    /// Build a group of `members` over a `pages`-page table whose page `p`
    /// holds `page(p)`, with a CF lock table of `lock_entries`, every
    /// region running `handler` as [`TRAN`].
    pub fn build(
        members: u8,
        pages: u64,
        lock_entries: usize,
        mut page: impl FnMut(u64) -> Page,
        handler: TranHandler,
    ) -> Result<DbRig, String> {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let timer = SysplexTimer::new();
        let xcf = Xcf::new(Arc::clone(&timer));
        let mut config = GroupConfig { pages, lock_entries, ..GroupConfig::default() };
        config.db.lock_timeout = LOCK_TIMEOUT;
        let group = DataSharingGroup::new(config, &cf, DasdFarm::new(IoModel::instant()), timer, xcf)
            .map_err(|e| format!("group: {e}"))?;
        for p in 0..pages {
            let image = page(p).encode();
            group.store.write_image(0, p, &image).map_err(|e| format!("preload page {p}: {e}"))?;
        }
        let wlm = Arc::new(Wlm::new());
        wlm.define_class(ServiceClass {
            name: "BENCH".into(),
            goal: Duration::from_millis(50),
            importance: 1,
        });
        let mut rig = DbRig {
            cf,
            group,
            members: Vec::new(),
            regions: Vec::new(),
            systems: Vec::new(),
            daemons: Vec::new(),
        };
        for i in 0..members {
            let id = SystemId::new(i);
            let db = rig.group.add_member(id).map_err(|e| format!("member {i}: {e}"))?;
            let system = System::ipl(SystemConfig::cmos(id, 1));
            let region = CicsRegion::new(Arc::clone(&system), Arc::clone(&db), Arc::clone(&wlm));
            region.define(TranDef {
                name: TRAN.into(),
                service_class: "BENCH".into(),
                handler: Arc::clone(&handler),
            });
            rig.daemons.push(CastoutDaemon::start(Arc::clone(&db), CastoutConfig::default()));
            rig.members.push(db);
            rig.regions.push(region);
            rig.systems.push(system);
        }
        Ok(rig)
    }

    /// Highest share of its log volume any member has written, in %.
    pub fn log_used_pct(&self) -> f64 {
        self.log_volumes()
            .iter()
            .map(|v| {
                let capacity = self.group.farm.volume(v).map(|p| p.volume().capacity()).unwrap_or(1);
                100.0 * next_log_block(&self.group.farm, v) as f64 / capacity as f64
            })
            .fold(0.0, f64::max)
    }

    fn log_volumes(&self) -> Vec<String> {
        self.group.farm.volume_names().into_iter().filter(|v| v.starts_with("DSGLOG")).collect()
    }

    /// Every counter the stack publishes, summed over members.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        let mut add = |k: &str, v: u64| *c.entry(k.to_string()).or_insert(0) += v;
        for db in &self.members {
            let s = &db.stats;
            add("db.reads", s.reads.get());
            add("db.writes", s.writes.get());
            add("db.commits", s.commits.get());
            add("db.aborts", s.aborts.get());
            let i = &db.irlm().stats;
            add("irlm.requests", i.requests.get());
            add("irlm.grants_cf_sync", i.grants_cf_sync.get());
            add("irlm.false_contentions", i.false_contentions.get());
            add("irlm.real_conflicts", i.real_conflicts.get());
            add("irlm.queries_served", i.queries_served.get());
            add("irlm.regrants_local", i.regrants_local.get());
            add("irlm.recalls", i.recalls.get());
            let b = &db.buffers().stats;
            add("buf.local_hits", b.local_hits.get());
            add("buf.coherency_misses", b.coherency_misses.get());
            add("buf.cf_refreshes", b.cf_refreshes.get());
            add("buf.dasd_reads", b.dasd_reads.get());
            add("buf.writes", b.writes.get());
        }
        for d in &self.daemons {
            add("castout.pages", d.pages_cast_out.load(Ordering::Relaxed));
            add("castout.checkpoints", d.checkpoints.load(Ordering::Relaxed));
        }
        for name in self.group.farm.volume_names() {
            let Ok(paths) = self.group.farm.volume(&name) else { continue };
            let stats = &paths.volume().stats;
            let (reads, writes) = (stats.reads.load(Ordering::Relaxed), stats.writes.load(Ordering::Relaxed));
            if name.starts_with("DSGLOG") {
                add("log.block_writes", writes);
            } else {
                add("dasd.page_reads", reads);
                add("dasd.page_writes", writes);
            }
        }
        c.insert("gauge.log_used_milli_pct".into(), (self.log_used_pct() * 1000.0) as u64);
        c.insert("gauge.cache_changed".into(), self.group.cache_structure().changed_count() as u64);
        crate::bench::class_counters(&mut c, self.cf.command_stats());
        c
    }

    /// Members with a transaction still open, and the CF's command books.
    pub fn check_quiesced(&self) -> Result<(), String> {
        for db in &self.members {
            let open = db.active_transactions();
            if open != 0 {
                return Err(format!("{} still has {open} open transaction(s)", db.system()));
            }
        }
        crate::bench::reconcile("CF01", self.cf.command_stats())
    }

    /// Stop the daemons, remove the members and stop their systems.
    pub fn teardown(self) {
        for d in self.daemons {
            d.stop();
        }
        for db in &self.members {
            self.group.remove_member(db.system());
        }
        for s in &self.systems {
            s.quiesce();
        }
    }
}

/// Next block a member log will write, from the log header in block 0
/// (`first_active`, `next_block`, both big-endian u64).
fn next_log_block(farm: &DasdFarm, volume: &str) -> u64 {
    match farm.read(0, volume, 0) {
        Ok(h) if h.len() >= 16 => u64::from_be_bytes(h[8..16].try_into().expect("8-byte slice")),
        _ => 0,
    }
}
