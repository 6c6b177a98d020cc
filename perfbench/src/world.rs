//! What both workloads share: the location domain and table shapes, the
//! engine configuration, a scratch data directory inside the checkout,
//! the layer counters read around a measured window, and the expected
//! answers the correctness checks compare against.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use instant_common::{DataType, Duration, Value};
use instant_core::metrics::{storage_footprint, wal_stats};
use instant_core::query::QueryOutput;
use instant_core::schema::{Column, TableSchema};
use instant_core::{Db, DbConfig, GroupCommitConfig, WalMode};
use instant_lcp::policy::parse_lcp;
use instant_lcp::RangeHierarchy;
use instant_obs::hist::HistogramSnapshot;
use instant_workload::location::{LocationDomain, LocationShape};
use instant_workload::queries::{GeneratedQuery, QueryGen, QueryMix};

/// The standard experiment domain: 2 countries, 10 regions, 100 cities,
/// ~2000 addresses.
pub fn location_domain() -> LocationDomain {
    LocationDomain::generate(LocationShape::default(), 0.9)
}

/// `(id, user, location, salary)` with `location` degrading under
/// `location_lcp` and, when `salary_lcp` is given, `salary` degrading
/// over salary ranges. `id` and `location` are indexed.
pub fn events_schema(
    name: &str,
    domain: &LocationDomain,
    location_lcp: &str,
    salary_lcp: Option<&str>,
) -> TableSchema {
    let hierarchy = domain.hierarchy();
    let location = parse_lcp(location_lcp, Some(hierarchy.as_ref())).expect("valid location LCP");
    let salary = match salary_lcp {
        Some(spec) => {
            let ranges = Arc::new(RangeHierarchy::salary());
            let lcp = parse_lcp(spec, Some(ranges.as_ref())).expect("valid salary LCP");
            Column::degradable("salary", DataType::Int, ranges, lcp).expect("salary column")
        }
        None => Column::stable("salary", DataType::Int),
    };
    TableSchema::new(
        name,
        vec![
            Column::stable("id", DataType::Int).with_index(),
            Column::stable("user", DataType::Str),
            Column::degradable("location", DataType::Str, hierarchy, location)
                .expect("location column")
                .with_index(),
            salary,
        ],
    )
    .expect("valid schema")
}

/// Bytes of user data in a row: 8 per integer, the length of a string.
pub fn user_bytes(row: &[Value]) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Str(s) => s.len() as u64,
            _ => 8,
        })
        .sum()
}

/// The SQL literal list of an `(id, user, location, salary)` row.
pub fn sql_values(row: &[Value]) -> String {
    row.iter()
        .map(|v| match v {
            Value::Str(s) => format!("'{s}'"),
            Value::Int(i) => i.to_string(),
            other => panic!("generated rows hold only ints and strings, got {other:?}"),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Threads a table is preloaded from. Concurrent auto-commit inserts
/// share group-commit fsyncs, so set-up time depends less on the host's
/// fsync latency, which drifts by 2–3× over minutes on a shared host.
pub const PRELOAD_THREADS: usize = 32;

/// Insert `rows` into `table` with `Db::insert`, row `i` from thread
/// `i % PRELOAD_THREADS`. Returns every insert's latency in µs.
pub fn preload(db: &Db, table: &str, rows: &[Vec<Value>]) -> instant_common::Result<Vec<f64>> {
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..PRELOAD_THREADS)
            .map(|t| {
                s.spawn(move || -> instant_common::Result<Vec<f64>> {
                    let mut us = Vec::with_capacity(rows.len() / PRELOAD_THREADS + 1);
                    for row in rows.iter().skip(t).step_by(PRELOAD_THREADS) {
                        let started = Instant::now();
                        db.insert(table, row)?;
                        us.push(started.elapsed().as_secs_f64() * 1e6);
                    }
                    Ok(us)
                })
            })
            .collect();
        let mut all = Vec::with_capacity(rows.len());
        for t in threads {
            all.extend(t.join().expect("preload thread")?);
        }
        Ok(all)
    })
}

/// The engine knobs a workload sets; every one is passed to the builder
/// explicitly and printed with the results.
#[derive(Debug, Clone)]
pub struct Knobs {
    pub wal_shards: usize,
    pub buffer_frames: usize,
    pub batch_max: usize,
    pub key_window: Duration,
    /// `None`: no background checkpointer (the workload checkpoints).
    pub checkpoint_every: Option<std::time::Duration>,
}

impl Knobs {
    pub fn config(&self, path: &Path, key_seed: u64) -> DbConfig {
        let mut b = DbConfig::builder()
            .wal_mode(WalMode::Sealed)
            .wal_shards(self.wal_shards)
            .group_commit(GroupCommitConfig::default())
            .buffer_frames(self.buffer_frames)
            .batch_max(self.batch_max)
            .key_window(self.key_window)
            .key_seed(key_seed)
            .path(path);
        if let Some(every) = self.checkpoint_every {
            b = b.checkpoint_every(every);
        }
        b.build().expect("benchmark config is valid")
    }

    pub fn describe(&self) -> String {
        let gc = GroupCommitConfig::default();
        format!(
            "wal_mode=sealed wal_shards={} group_commit(max_batch={}, max_delay={:?}) \
             buffer_frames={} batch_max={} key_window={} checkpoint_every={}",
            self.wal_shards,
            gc.max_batch,
            gc.max_delay,
            self.buffer_frames,
            self.batch_max,
            self.key_window,
            match self.checkpoint_every {
                Some(d) => format!("{}ms", d.as_millis()),
                None => "none (explicit closing checkpoint)".into(),
            }
        )
    }
}

/// A per-process scratch directory under the working directory, removed
/// when dropped.
pub struct DataDir {
    root: PathBuf,
}

impl DataDir {
    pub fn create(workload: &str) -> std::io::Result<DataDir> {
        let root =
            PathBuf::from(".perfbench_data").join(format!("{workload}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(DataDir { root })
    }

    /// A fresh engine path prefix for set-up number `k`.
    pub fn engine_path(&self, k: usize) -> std::io::Result<PathBuf> {
        let dir = self.root.join(format!("engine-{k}"));
        std::fs::create_dir_all(&dir)?;
        Ok(dir.join("db"))
    }

    /// Delete set-up `k`'s files (the engine must be closed).
    pub fn discard(&self, k: usize) -> std::io::Result<()> {
        std::fs::remove_dir_all(self.root.join(format!("engine-{k}")))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.root) {
            eprintln!("perfbench: could not remove {}: {e}", self.root.display());
        }
        // Fails, harmlessly, while another run still uses the parent.
        let _ = std::fs::remove_dir(".perfbench_data");
    }
}

/// `(count, sum µs)` of a histogram between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistDelta {
    pub count: u64,
    pub sum_us: u64,
}

impl HistDelta {
    pub fn between(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistDelta {
        HistDelta {
            count: b.count.saturating_sub(a.count),
            sum_us: b.sum_micros.saturating_sub(a.sum_micros),
        }
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    pub fn add(&mut self, other: HistDelta) {
        self.count += other.count;
        self.sum_us += other.sum_us;
    }
}

/// Every counter and histogram the benchmark reads from the program, at
/// one instant.
#[derive(Debug, Clone)]
pub struct LayerSnap {
    pub at: Instant,
    pub query_total: HistogramSnapshot,
    pub query_parse: HistogramSnapshot,
    pub query_exec: HistogramSnapshot,
    pub query_reply: HistogramSnapshot,
    pub commit_ack: HistogramSnapshot,
    pub wal_fsync: HistogramSnapshot,
    pub checkpoint: HistogramSnapshot,
    /// `(hits, misses, evictions)`.
    pub pool: (u64, u64, u64),
    /// `(reads, writes)` of the heap file.
    pub disk: (u64, u64),
    /// `(grants, conflicts, wait-die aborts)`.
    pub locks: (u64, u64, u64),
    pub group_commits: u64,
    pub group_batches: u64,
    pub shredded: usize,
}

impl LayerSnap {
    pub fn take(db: &Db) -> LayerSnap {
        let obs = db.obs();
        let wal = wal_stats(db);
        LayerSnap {
            at: Instant::now(),
            query_total: obs.query_total.snapshot(),
            query_parse: obs.query_parse.snapshot(),
            query_exec: obs.query_exec.snapshot(),
            query_reply: obs.query_reply.snapshot(),
            commit_ack: obs.commit_ack.snapshot(),
            wal_fsync: obs.wal_fsync.snapshot(),
            checkpoint: obs.checkpoint.snapshot(),
            pool: db.buffer_pool().stats(),
            disk: db.buffer_pool().disk().io_counters(),
            locks: db.tx_manager().locks().counters(),
            group_commits: wal.group_commits,
            group_batches: wal.group_batches,
            shredded: db.keystore().shredded_count(),
        }
    }
}

/// Counter movement between two [`LayerSnap`]s, summable across rounds.
#[derive(Debug, Clone, Default)]
pub struct LayerDelta {
    pub query_total: HistDelta,
    pub query_parse: HistDelta,
    pub query_exec: HistDelta,
    pub query_reply: HistDelta,
    pub commit_ack: HistDelta,
    pub wal_fsync: HistDelta,
    pub checkpoint: HistDelta,
    pub checkpoint_max_us: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub lock_conflicts: u64,
    pub lock_aborts: u64,
    pub group_commits: u64,
    pub group_batches: u64,
    pub shredded: u64,
}

impl LayerDelta {
    pub fn between(a: &LayerSnap, b: &LayerSnap) -> LayerDelta {
        LayerDelta {
            query_total: HistDelta::between(&a.query_total, &b.query_total),
            query_parse: HistDelta::between(&a.query_parse, &b.query_parse),
            query_exec: HistDelta::between(&a.query_exec, &b.query_exec),
            query_reply: HistDelta::between(&a.query_reply, &b.query_reply),
            commit_ack: HistDelta::between(&a.commit_ack, &b.commit_ack),
            wal_fsync: HistDelta::between(&a.wal_fsync, &b.wal_fsync),
            checkpoint: HistDelta::between(&a.checkpoint, &b.checkpoint),
            checkpoint_max_us: if b.checkpoint.count > a.checkpoint.count {
                b.checkpoint.max_micros
            } else {
                0
            },
            pool_hits: b.pool.0 - a.pool.0,
            pool_misses: b.pool.1 - a.pool.1,
            pool_evictions: b.pool.2 - a.pool.2,
            disk_reads: b.disk.0 - a.disk.0,
            disk_writes: b.disk.1 - a.disk.1,
            lock_conflicts: b.locks.1 - a.locks.1,
            lock_aborts: b.locks.2 - a.locks.2,
            group_commits: b.group_commits - a.group_commits,
            group_batches: b.group_batches - a.group_batches,
            shredded: (b.shredded - a.shredded) as u64,
        }
    }

    pub fn add(&mut self, o: &LayerDelta) {
        self.query_total.add(o.query_total);
        self.query_parse.add(o.query_parse);
        self.query_exec.add(o.query_exec);
        self.query_reply.add(o.query_reply);
        self.commit_ack.add(o.commit_ack);
        self.wal_fsync.add(o.wal_fsync);
        self.checkpoint.add(o.checkpoint);
        self.checkpoint_max_us = self.checkpoint_max_us.max(o.checkpoint_max_us);
        self.pool_hits += o.pool_hits;
        self.pool_misses += o.pool_misses;
        self.pool_evictions += o.pool_evictions;
        self.disk_reads += o.disk_reads;
        self.disk_writes += o.disk_writes;
        self.lock_conflicts += o.lock_conflicts;
        self.lock_aborts += o.lock_aborts;
        self.group_commits += o.group_commits;
        self.group_batches += o.group_batches;
        self.shredded += o.shredded;
    }

    pub fn pool_hit_ratio(&self) -> f64 {
        let all = self.pool_hits + self.pool_misses;
        if all == 0 {
            0.0
        } else {
            self.pool_hits as f64 / all as f64
        }
    }

    pub fn commits_per_fsync(&self) -> f64 {
        if self.group_batches == 0 {
            0.0
        } else {
            self.group_commits as f64 / self.group_batches as f64
        }
    }
}

/// Bytes the WAL has ever written: the segments on disk plus those
/// truncation deleted. Flushes the buffer pool (through
/// `storage_footprint`), so take it outside measured windows. Returns
/// `(heap bytes, wal bytes on disk, wal bytes written)`.
pub fn footprint(db: &Db) -> instant_common::Result<(u64, u64, u64)> {
    let (heap, wal) = storage_footprint(db)?;
    Ok((heap, wal, wal + wal_stats(db).truncated_bytes))
}

/// Which half of the analyst mix a generated query belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Point id, exact address, salary band: selective, accurate.
    Oltp,
    /// Region at d2, country at d3: broad, degraded.
    Olap,
}

/// The analyst's queries: OLTP and OLAP weighted equally, 1/6 each for
/// the three OLTP shapes and 1/4 each for the two OLAP shapes. Shapes
/// follow a fixed 12-query cycle, and only their literals come from the
/// seed: drawn at random, the shape shares would move by a few percent
/// from seed to seed, and a class median that lies between two shapes
/// would move with them.
pub struct AnalystQueries<'d> {
    /// One generator per shape, in [`CYCLE`] order of first use.
    shapes: Vec<QueryGen<'d>>,
    next: usize,
}

/// Indices into [`SHAPES`]: point id, exact address, salary band (OLTP)
/// twice each; region at d2 and country at d3 (OLAP) three times each.
const CYCLE: [usize; 12] = [0, 3, 1, 4, 2, 3, 0, 4, 1, 3, 2, 4];

/// The single-shape mixes the cycle draws from.
const SHAPES: [QueryMix; 5] = {
    const NONE: QueryMix = QueryMix {
        point_by_id: 0.0,
        location_eq_accurate: 0.0,
        location_eq_degraded: 0.0,
        salary_band: 0.0,
        like_country: 0.0,
    };
    [
        QueryMix {
            point_by_id: 1.0,
            ..NONE
        },
        QueryMix {
            location_eq_accurate: 1.0,
            ..NONE
        },
        QueryMix {
            salary_band: 1.0,
            ..NONE
        },
        QueryMix {
            location_eq_degraded: 1.0,
            ..NONE
        },
        QueryMix {
            like_country: 1.0,
            ..NONE
        },
    ]
};

impl<'d> AnalystQueries<'d> {
    pub fn new(domain: &'d LocationDomain, rows: usize, seed: u64) -> Self {
        let shapes = SHAPES
            .iter()
            .zip(0u64..)
            .map(|(mix, i)| QueryGen::new(domain, *mix, rows as i64, seed.wrapping_add(i)))
            .collect();
        AnalystQueries { shapes, next: 0 }
    }

    pub fn next_query(&mut self) -> GeneratedQuery {
        let shape = CYCLE[self.next % CYCLE.len()];
        self.next += 1;
        self.shapes[shape].next_query()
    }
}

/// The purpose OLTP queries run under (QueryGen leaves them without
/// one; a session keeps the last declared purpose, so it is restored
/// explicitly after an OLAP query).
pub const ACCURATE_PURPOSE: &str =
    "DECLARE PURPOSE EXACT SET ACCURACY LEVEL d0 FOR LOCATION, d0 FOR SALARY";

/// The expected answer of every query shape over a static table, built
/// from the rows the benchmark generated.
#[derive(Debug, Default)]
pub struct Answers {
    rows: usize,
    by_address: HashMap<String, usize>,
    by_region: HashMap<String, usize>,
    by_country: HashMap<String, usize>,
    salaries: Vec<i64>,
}

impl Answers {
    pub fn of(domain: &LocationDomain, rows: &[Vec<Value>]) -> Answers {
        let mut a = Answers {
            rows: rows.len(),
            ..Answers::default()
        };
        for row in rows {
            let (Value::Str(addr), Value::Int(salary)) = (&row[2], &row[3]) else {
                panic!("generated rows are (id, user, location, salary)");
            };
            *a.by_address.entry(addr.clone()).or_default() += 1;
            *a.by_region.entry(domain.label_at(addr, 2)).or_default() += 1;
            *a.by_country.entry(domain.label_at(addr, 3)).or_default() += 1;
            a.salaries.push(*salary);
        }
        a.salaries.sort_unstable();
        a
    }

    /// `(class, expected row count)` of a generated query.
    pub fn expect(&self, q: &GeneratedQuery) -> (Class, usize) {
        let quoted = || {
            q.sql
                .split('\'')
                .nth(1)
                .expect("query has a literal")
                .to_string()
        };
        match q.tag.as_str() {
            "point-id" => (Class::Oltp, 1),
            "loc-eq@d0" => (Class::Oltp, self.count(&self.by_address, &quoted())),
            "salary-band" => {
                let mut words = q.sql.split_whitespace();
                let lo: i64 = words
                    .by_ref()
                    .skip_while(|w| *w != "BETWEEN")
                    .nth(1)
                    .and_then(|w| w.parse().ok())
                    .expect("salary band has a lower bound");
                let hi: i64 = words
                    .nth(1)
                    .and_then(|w| w.parse().ok())
                    .expect("salary band has an upper bound");
                let n = self.salaries.partition_point(|&s| s <= hi)
                    - self.salaries.partition_point(|&s| s < lo);
                (Class::Oltp, n)
            }
            "loc-eq@d2" => (Class::Olap, self.count(&self.by_region, &quoted())),
            "like-country@d3" => {
                let country = quoted().trim_matches('%').to_string();
                (Class::Olap, self.count(&self.by_country, &country))
            }
            other => panic!("unknown query shape {other}"),
        }
    }

    fn count(&self, map: &HashMap<String, usize>, key: &str) -> usize {
        map.get(key).copied().unwrap_or(0)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// Rows of a SELECT answer, or an error naming what came back instead.
pub fn row_count(out: &QueryOutput) -> Result<usize, String> {
    match out {
        QueryOutput::Rows(r) => Ok(r.rows.len()),
        other => Err(format!("expected rows, got {other:?}")),
    }
}

/// The commit this checkout was built from, read from `.git` without
/// running git; "unknown" outside a git checkout.
pub fn commit_id() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyst_queries_weight_the_classes_equally_in_every_cycle() {
        let domain = location_domain();
        let rows: Vec<Vec<Value>> = Vec::new();
        let answers = Answers::of(&domain, &rows);
        let mut gen = AnalystQueries::new(&domain, 100, 7);
        let mut tags: HashMap<String, usize> = HashMap::new();
        let mut classes = (0, 0);
        for _ in 0..CYCLE.len() * 3 {
            let q = gen.next_query();
            match answers.expect(&q).0 {
                Class::Oltp => classes.0 += 1,
                Class::Olap => classes.1 += 1,
            }
            *tags.entry(q.tag).or_default() += 1;
        }
        assert_eq!(classes, (18, 18));
        for (tag, n) in [
            ("point-id", 6),
            ("loc-eq@d0", 6),
            ("salary-band", 6),
            ("loc-eq@d2", 9),
            ("like-country@d3", 9),
        ] {
            assert_eq!(tags.get(tag), Some(&n), "{tag}");
        }
    }

    #[test]
    fn analyst_queries_repeat_for_a_seed() {
        let domain = location_domain();
        let sql = |seed| {
            let mut gen = AnalystQueries::new(&domain, 100, seed);
            (0..24).map(|_| gen.next_query().sql).collect::<Vec<_>>()
        };
        assert_eq!(sql(3), sql(3));
        assert_ne!(sql(3), sql(4));
    }
}
