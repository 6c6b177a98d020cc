//! `served_mix`: both served paths at once. An in-process `Server` on
//! loopback; an ingest connection runs closed-loop INSERTs into a live
//! table whose location degrades through four millisecond stages and is
//! removed during the run; an analyst connection runs closed-loop
//! purpose-bound SELECTs against a static `history` table about twice
//! the buffer pool. The engine runs on the system clock with a sealed
//! WAL, group commit, a periodic checkpointer and a short key window.
//! The benchmark's pump thread replaces the degradation daemon.
//!
//! In `served_mix` a live row keeps a day-long salary LCP, so removing
//! its location rewrites the tuple in place. `served_expunge` drops that
//! LCP, so the removal expunges the tuple and frees its slot while the
//! ingest runs; it is the reproducer of the `Db::insert` defect the
//! README describes, and is not in `BENCHMARK.json`.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use instant_common::{Duration, SystemClock, Timestamp, Value};
use instant_core::query::{parser, HierarchyRegistry, QueryOutput};
use instant_core::Db;
use instant_server::protocol::DEFAULT_MAX_FRAME_BYTES;
use instant_server::{Client, ClientConfig, Server, ServerConfig};
use instant_workload::events::{EventStream, EventStreamConfig};
use instant_workload::location::LocationDomain;

use crate::stats::{mean, median, samples_needed, BatchObs, BatchSummary, Tally};
use crate::world::{
    events_schema, footprint, preload, row_count, sql_values, user_bytes, AnalystQueries, Answers,
    Class, DataDir, HistDelta, Knobs, LayerDelta, LayerSnap, ACCURATE_PURPOSE,
};
use crate::{Attribution, Layer, Report};

/// Rows preloaded into `history`: about 2× the pool's 32 frames of heap.
const HISTORY_ROWS: usize = 5_400;
const HISTORY_LOCATION_LCP: &str = "d0:1d -> d1:1d -> d2:1d -> d3:1d";
const HISTORY_SALARY_LCP: &str = "d0:1d -> d3:1d";
/// Every live row's location is generalized three times and removed
/// within 100 ms.
const LIVE_LCP: &str = "d0:25ms -> d1:25ms -> d2:25ms -> d3:25ms";
/// The location transitions of one live row: three steps and the removal.
const LIVE_TRANSITIONS: usize = 4;
/// The `location` column of `events_schema`.
const LOCATION_COL: usize = 2;
/// Longest sleep of the pump thread between due checks.
const PUMP_SLEEP_CAP: StdDuration = StdDuration::from_millis(1);
/// Set-ups per run; `setup_s` is their median, the last one is measured.
const SETUP_REPEATS: usize = 5;
/// A run never measures longer than this, however few samples it has.
const WINDOW_CAP: StdDuration = StdDuration::from_secs(110);
/// How long the final drain may take before the live table counts as
/// not drained.
const DRAIN_DEADLINE: StdDuration = StdDuration::from_secs(3);

fn knobs() -> Knobs {
    Knobs {
        wal_shards: 2,
        buffer_frames: 32,
        batch_max: 64,
        key_window: Duration::millis(250),
        checkpoint_every: Some(StdDuration::from_millis(500)),
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: 4,
        workers: 2,
        queue_depth: 16,
        max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        degrade_every: None,
        handshake_timeout: StdDuration::from_secs(10),
        write_timeout: StdDuration::from_secs(30),
        slow_query: Some(StdDuration::from_millis(250)),
        read_only: false,
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        // A reconnect would hide a dropped connection; fail instead.
        reconnect: false,
        banner: "perfbench".into(),
    }
}

fn stream_config() -> EventStreamConfig {
    EventStreamConfig {
        events_per_hour: 1_000.0,
        users: 500,
        user_skew: 0.9,
        salary_lo: 1_000,
        salary_hi: 10_000,
    }
}

/// One set-up: engine open, history preload, server start, two dials.
struct Engine {
    server: Server,
    ingest: Client,
    analyst: Client,
    setup_s: f64,
    insert_us: Vec<f64>,
    heap_bytes: u64,
    wal_bytes: u64,
    wal_written: u64,
}

fn set_up(
    dir: &DataDir,
    k: usize,
    seed: u64,
    domain: &LocationDomain,
    history: &[Vec<Value>],
    live_salary_lcp: Option<&str>,
    trace: bool,
) -> Result<Engine, String> {
    let err = |what: &str| {
        let what = what.to_string();
        move |e: instant_common::Error| format!("set-up: {what}: {e}")
    };
    let started = Instant::now();
    let path = dir
        .engine_path(k)
        .map_err(|e| format!("set-up: data dir: {e}"))?;
    let db = Arc::new(
        Db::open(knobs().config(&path, seed), Arc::new(SystemClock)).map_err(err("open"))?,
    );
    db.create_table(events_schema(
        "history",
        domain,
        HISTORY_LOCATION_LCP,
        Some(HISTORY_SALARY_LCP),
    ))
    .map_err(err("create history"))?;
    db.create_table(events_schema("live", domain, LIVE_LCP, live_salary_lcp))
        .map_err(err("create live"))?;
    let insert_us = preload(&db, "history", history).map_err(err("preload insert"))?;
    let preloaded = started.elapsed();
    // Read outside the timed set-up: it flushes the pool and reads every file.
    let (heap_bytes, wal_bytes, wal_written) = footprint(&db).map_err(err("footprint"))?;
    let restarted = Instant::now();
    let server = Server::start(db, HierarchyRegistry::new(), server_config())
        .map_err(err("server start"))?;
    // `Server::start` turns spans on; only the traced run keeps them.
    server.db().obs().set_spans_enabled(trace);
    let addr = server.local_addr().to_string();
    let ingest = Client::connect_with(addr.clone(), client_config()).map_err(err("dial ingest"))?;
    let mut analyst = Client::connect_with(addr, client_config()).map_err(err("dial analyst"))?;
    analyst
        .query(ACCURATE_PURPOSE)
        .map_err(err("declare purpose"))?;
    let setup_s = (preloaded + restarted.elapsed()).as_secs_f64();
    Ok(Engine {
        server,
        ingest,
        analyst,
        setup_s,
        insert_us,
        heap_bytes,
        wal_bytes,
        wal_written,
    })
}

/// Which connections may send. The traced run splits its window into
/// an ingest-only half and an analyst-only half, so each unit's
/// server-side stage deltas belong to that unit alone.
struct Gates {
    stop: AtomicBool,
    ingest_on: AtomicBool,
    analyst_on: AtomicBool,
    ingest_busy: AtomicBool,
    stop_pump: AtomicBool,
    recording: AtomicBool,
    inserts: AtomicUsize,
    oltp: AtomicUsize,
    olap: AtomicUsize,
    batches: AtomicUsize,
    /// Transitions fired by every batch, the final drain's too.
    fired: AtomicU64,
}

#[derive(Default)]
struct IngestOut {
    latency_us: Vec<f64>,
    parse_us: Vec<f64>,
    user_bytes: u64,
    round_trip_us: f64,
    statements: u64,
    tally: Tally,
}

fn ingest_loop(
    client: &mut Client,
    g: &Gates,
    domain: &LocationDomain,
    seed: u64,
    trace: bool,
) -> IngestOut {
    let mut out = IngestOut::default();
    let mut stream = EventStream::new(
        stream_config(),
        domain,
        seed.wrapping_add(1),
        Timestamp::ZERO,
    );
    let mut next_id = HISTORY_ROWS as i64;
    while !g.stop.load(Ordering::Acquire) {
        if !g.ingest_on.load(Ordering::Acquire) {
            g.ingest_busy.store(false, Ordering::Release);
            std::thread::sleep(StdDuration::from_millis(1));
            continue;
        }
        g.ingest_busy.store(true, Ordering::Release);
        let mut row = stream.next_event().row;
        row[0] = Value::Int(next_id);
        next_id += 1;
        let sql = format!("INSERT INTO live VALUES ({})", sql_values(&row));
        if trace {
            let t = Instant::now();
            let parsed = parser::parse(&sql);
            out.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            if out.tally.op("parse INSERT", parsed).is_none() {
                continue;
            }
        }
        let t = Instant::now();
        let r = client.query(&sql);
        let us = t.elapsed().as_secs_f64() * 1e6;
        out.round_trip_us += us;
        out.statements += 1;
        match r {
            Ok(QueryOutput::Inserted(1)) => {
                out.tally.ok();
                out.latency_us.push(us);
                out.user_bytes += user_bytes(&row);
                g.inserts.fetch_add(1, Ordering::Relaxed);
            }
            Ok(other) => out.tally.fail(format!("INSERT acknowledged as {other:?}")),
            Err(e) => out.tally.fail(format!("INSERT: {e}")),
        }
    }
    g.ingest_busy.store(false, Ordering::Release);
    out
}

#[derive(Default)]
struct AnalystOut {
    oltp_us: Vec<f64>,
    olap_us: Vec<f64>,
    oltp_rows: Vec<f64>,
    olap_rows: Vec<f64>,
    parse_us: Vec<f64>,
    round_trip_us: f64,
    statements: u64,
    declares: u64,
    tally: Tally,
}

fn analyst_loop(
    client: &mut Client,
    g: &Gates,
    domain: &LocationDomain,
    answers: &Answers,
    seed: u64,
    trace: bool,
) -> AnalystOut {
    let mut out = AnalystOut::default();
    let mut gen = AnalystQueries::new(domain, answers.rows(), seed.wrapping_add(2));
    let mut current = ACCURATE_PURPOSE.to_string();
    let mut send = |out: &mut AnalystOut, sql: &str| {
        if trace {
            let t = Instant::now();
            let parsed = parser::parse(sql);
            out.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.tally.op("parse", parsed)?;
        }
        let t = Instant::now();
        let r = client.query(sql);
        let us = t.elapsed().as_secs_f64() * 1e6;
        out.round_trip_us += us;
        out.statements += 1;
        Some((r, us))
    };
    while !g.stop.load(Ordering::Acquire) {
        if !g.analyst_on.load(Ordering::Acquire) {
            std::thread::sleep(StdDuration::from_millis(1));
            continue;
        }
        let q = gen.next_query();
        let want = q
            .purpose
            .clone()
            .unwrap_or_else(|| ACCURATE_PURPOSE.to_string());
        if want != current {
            let Some((r, _)) = send(&mut out, &want) else {
                continue;
            };
            out.declares += 1;
            match r {
                Ok(QueryOutput::PurposeDeclared(_)) => {
                    out.tally.ok();
                    current = want;
                }
                Ok(other) => {
                    out.tally
                        .fail(format!("DECLARE PURPOSE answered {other:?}"));
                    continue;
                }
                Err(e) => {
                    out.tally.fail(format!("DECLARE PURPOSE: {e}"));
                    continue;
                }
            }
        }
        let sql = q.sql.replace("FROM events", "FROM history");
        let (class, expected) = answers.expect(&q);
        let Some((r, us)) = send(&mut out, &sql) else {
            continue;
        };
        let rows = match r.map_err(|e| e.to_string()).and_then(|o| row_count(&o)) {
            Ok(n) => n,
            Err(e) => {
                out.tally.fail(format!("{}: {e}", q.tag));
                continue;
            }
        };
        if !out.tally.check(rows == expected, || {
            format!("{} returned {rows} rows, expected {expected}: {sql}", q.tag)
        }) {
            continue;
        }
        let (lat, n, counter) = match class {
            Class::Oltp => (&mut out.oltp_us, &mut out.oltp_rows, &g.oltp),
            Class::Olap => (&mut out.olap_us, &mut out.olap_rows, &g.olap),
        };
        lat.push(us);
        n.push(rows as f64);
        counter.fetch_add(1, Ordering::Relaxed);
    }
    out
}

#[derive(Default)]
struct PumpOut {
    batches: Vec<BatchObs>,
    tally: Tally,
}

/// Pump as soon as the oldest transition is due; otherwise sleep until
/// it is, at most [`PUMP_SLEEP_CAP`].
fn pump_loop(db: &Db, g: &Gates, trace: bool) -> PumpOut {
    let mut out = PumpOut::default();
    while !g.stop_pump.load(Ordering::Acquire) {
        let now = db.now();
        let due = match db.scheduler().next_due() {
            Some(due) if due <= now => due,
            Some(due) => {
                let wait = StdDuration::from_micros(due.since(now).as_micros());
                std::thread::sleep(wait.min(PUMP_SLEEP_CAP));
                continue;
            }
            None => {
                std::thread::sleep(PUMP_SLEEP_CAP);
                continue;
            }
        };
        let ack_before = trace.then(|| db.obs().commit_ack.snapshot());
        let start = db.now();
        let r = db.pump_one_batch();
        let end = db.now();
        let Some(report) = out.tally.op("pump_one_batch", r) else {
            std::thread::sleep(PUMP_SLEEP_CAP);
            continue;
        };
        g.fired.fetch_add(report.fired as u64, Ordering::Release);
        if g.recording.load(Ordering::Acquire) {
            // An INSERT folded into the same fsync acks inside the batch's
            // window too; both waited on that fsync, so the batch's own
            // ack is taken as the mean of the acks the window saw.
            let ack_us = ack_before
                .map(|a| {
                    let d = HistDelta::between(&a, &db.obs().commit_ack.snapshot());
                    d.mean_us() as u64
                })
                .unwrap_or(0);
            out.batches.push(BatchObs {
                due_us: due.0,
                start_us: start.0,
                end_us: end.0,
                fired: report.fired as u64,
                deferred: report.deferred as u64,
                ack_us,
            });
            g.batches.fetch_add(1, Ordering::Relaxed);
        }
    }
    out
}

/// `expunge` selects `served_expunge`: live rows without the salary LCP.
pub fn run(seed: u64, seconds: u64, trace: bool, expunge: bool) -> Result<Report, String> {
    let workload = if expunge {
        "served_expunge"
    } else {
        "served_mix"
    };
    let live_salary_lcp = (!expunge).then_some(HISTORY_SALARY_LCP);
    let domain = crate::world::location_domain();
    let mut history_stream = EventStream::new(stream_config(), &domain, seed, Timestamp::ZERO);
    let history: Vec<Vec<Value>> = history_stream
        .take(HISTORY_ROWS)
        .into_iter()
        .map(|e| e.row)
        .collect();
    let history_user_bytes: u64 = history.iter().map(|r| user_bytes(r)).sum();
    let answers = Answers::of(&domain, &history);
    let dir = DataDir::create(workload).map_err(|e| format!("data dir: {e}"))?;

    let mut setups = Vec::new();
    let mut engine = None;
    for k in 0..SETUP_REPEATS {
        let e = set_up(&dir, k, seed, &domain, &history, live_salary_lcp, trace)?;
        setups.push(e.setup_s);
        if k + 1 < SETUP_REPEATS {
            let Engine {
                server,
                ingest,
                analyst,
                ..
            } = e;
            drop((ingest, analyst));
            server
                .shutdown()
                .map_err(|e| format!("discarding set-up {k}: {e}"))?;
            dir.discard(k)
                .map_err(|e| format!("discarding set-up {k}: {e}"))?;
        } else {
            engine = Some(e);
        }
    }
    let Engine {
        server,
        mut ingest,
        mut analyst,
        insert_us: preload_us,
        heap_bytes,
        wal_bytes,
        wal_written: wal_written_before,
        ..
    } = engine.expect("at least one set-up");
    let db = server.db().clone();
    let pool_frames = db.config().buffer_frames;
    let history_pages = db.buffer_pool().disk().page_count();

    let g = Gates {
        stop: AtomicBool::new(false),
        ingest_on: AtomicBool::new(true),
        analyst_on: AtomicBool::new(!trace),
        ingest_busy: AtomicBool::new(false),
        stop_pump: AtomicBool::new(false),
        recording: AtomicBool::new(true),
        inserts: AtomicUsize::new(0),
        oltp: AtomicUsize::new(0),
        olap: AtomicUsize::new(0),
        batches: AtomicUsize::new(0),
        fired: AtomicU64::new(0),
    };
    let window = StdDuration::from_secs(seconds);
    let mut tally = Tally::default();
    let server_before = server.stats();
    let snap_start = LayerSnap::take(&db);
    let mut snap_switch = None;
    let mut switch_us = u64::MAX;
    let (ing, ana, pump, snap_end, wal_written_after, live, overdue) = std::thread::scope(|s| {
        let pump = s.spawn(|| pump_loop(&db, &g, trace));
        let ing = s.spawn(|| ingest_loop(&mut ingest, &g, &domain, seed, trace));
        let ana = s.spawn(|| analyst_loop(&mut analyst, &g, &domain, &answers, seed, trace));
        if trace {
            std::thread::sleep(window / 2);
            g.ingest_on.store(false, Ordering::Release);
            while g.ingest_busy.load(Ordering::Acquire) {
                std::thread::sleep(StdDuration::from_micros(200));
            }
            switch_us = db.now().0;
            snap_switch = Some(LayerSnap::take(&db));
            g.analyst_on.store(true, Ordering::Release);
            std::thread::sleep(window - window / 2);
        } else {
            std::thread::sleep(window);
            // Measure on until every reported percentile has ten samples
            // beyond it, within the cap.
            let enough = || {
                g.inserts.load(Ordering::Relaxed) >= samples_needed(0.99)
                    && g.oltp.load(Ordering::Relaxed) >= samples_needed(0.95)
                    && g.olap.load(Ordering::Relaxed) >= samples_needed(0.95)
                    && g.batches.load(Ordering::Relaxed) >= samples_needed(0.99)
            };
            while !enough() && snap_start.at.elapsed() < WINDOW_CAP {
                std::thread::sleep(StdDuration::from_millis(100));
            }
        }
        g.stop.store(true, Ordering::Release);
        let ing = ing.join().expect("ingest thread");
        let ana = ana.join().expect("analyst thread");
        g.recording.store(false, Ordering::Release);
        let snap_end = LayerSnap::take(&db);
        let wal_written_after = footprint(&db).map(|f| f.2);
        // Final drain: the pump keeps running until every acknowledged
        // row has had its location generalized and removed.
        let want = (LIVE_TRANSITIONS * g.inserts.load(Ordering::Acquire)) as u64;
        let drained = Instant::now();
        while g.fired.load(Ordering::Acquire) < want && drained.elapsed() < DRAIN_DEADLINE {
            std::thread::sleep(StdDuration::from_millis(5));
        }
        let overdue = db.scheduler().overdue_lag(db.now());
        g.stop_pump.store(true, Ordering::Release);
        let pump = pump.join().expect("pump thread");
        let live = db.catalog().get("live").and_then(|t| t.scan());
        (ing, ana, pump, snap_end, wal_written_after, live, overdue)
    });
    let window_s = snap_end.at.duration_since(snap_start.at).as_secs_f64();
    let server_after = server.stats();

    let acked = ing.latency_us.len();
    let fired = g.fired.load(Ordering::Acquire);
    tally.check(fired == (LIVE_TRANSITIONS * acked) as u64, || {
        format!(
            "{fired} transitions fired for {acked} acknowledged INSERTs, \
             expected {LIVE_TRANSITIONS} each"
        )
    });
    match live {
        Ok(tuples) => {
            let located = tuples
                .iter()
                .filter(|(_, t)| !t.row[LOCATION_COL].is_removed())
                .count();
            tally.check(located == 0, || {
                format!("{located} live rows still hold a location after the final drain")
            });
            let kept = if expunge { 0 } else { acked };
            tally.check(tuples.len() == kept, || {
                format!(
                    "{} live rows after the final drain, expected {kept}",
                    tuples.len()
                )
            });
        }
        Err(e) => tally.fail(format!("live scan: {e}")),
    }
    tally.check(overdue == Duration::ZERO, || {
        format!("overdue_lag {overdue} after the final drain")
    });
    let wal_written_after = match wal_written_after {
        Ok(w) => w,
        Err(e) => {
            tally.fail(format!("footprint: {e}"));
            wal_written_before
        }
    };
    drop((ingest, analyst));
    tally.op("server shutdown", server.shutdown());

    let ingest_user_bytes = ing.user_bytes;
    let batches = BatchSummary::of(&pump.batches);
    let delta = LayerDelta::between(&snap_start, &snap_end);
    let shed = server_after.total_shed() - server_before.total_shed();
    let query_errors = server_after.query_errors - server_before.query_errors;

    let mut report = Report::new(workload);
    report.info(format!("config: {}", knobs().describe()));
    report.info(format!("server: {:?}", server_config()));
    report.info(format!(
        "sizes: history {HISTORY_ROWS} rows = {history_pages} heap pages vs {pool_frames} pool frames \
         ({:.2}x); live location LCP '{LIVE_LCP}', salary LCP {live_salary_lcp:?}; \
         1 ingest + 1 analyst connection, closed loop",
        history_pages as f64 / pool_frames as f64
    ));
    report.info(format!(
        "window {window_s:.2}s: {} inserts, {} oltp + {} olap selects, {} purpose declarations, \
         {} pump batches ({} transitions), {} set-ups",
        ing.latency_us.len(),
        ana.oltp_us.len(),
        ana.olap_us.len(),
        ana.declares,
        batches.batches,
        batches.fired,
        setups.len()
    ));
    tally.merge(ing.tally);
    tally.merge(ana.tally);
    tally.merge(pump.tally);

    let selects = ana.oltp_us.len() + ana.olap_us.len();
    let space = (heap_bytes + wal_bytes) as f64 / history_user_bytes as f64;
    report.e2e(
        "insert_per_s",
        ing.latency_us.len() as f64 / window_s,
        "1/s",
    );
    report.e2e_percentile("oltp_select_p50_us", &ana.oltp_us, 0.50, "us");
    report.e2e_percentile("oltp_select_p95_us", &ana.oltp_us, 0.95, "us");
    report.e2e_percentile("olap_select_p50_us", &ana.olap_us, 0.50, "us");
    report.e2e_percentile("olap_select_p90_us", &ana.olap_us, 0.90, "us");
    report.e2e("select_per_s", selects as f64 / window_s, "1/s");
    // The degradation the live table demands, made durable per second of
    // the window: it falls if the pump stops keeping up with the ingest.
    report.e2e("degrade_per_s", batches.fired as f64 / window_s, "1/s");
    report.e2e("space_amp", space, "B/B");
    report.e2e("setup_s", median(&setups).unwrap_or(0.0), "s");
    report.e2e_percentile("olap_select_p95_us", &ana.olap_us, 0.95, "us");
    report.e2e_percentile("insert_p50_us", &ing.latency_us, 0.50, "us");
    report.e2e_percentile("insert_p99_us", &ing.latency_us, 0.99, "us");
    report.e2e_percentile("degrade_lateness_p50_us", &batches.lateness_us, 0.50, "us");
    report.e2e_percentile("degrade_lateness_p99_us", &batches.lateness_us, 0.99, "us");

    let statements = ing.statements + ana.statements;
    let round_trip = (ing.round_trip_us + ana.round_trip_us) / statements.max(1) as f64;
    let layers = Layer {
        wire_us: round_trip - delta.query_total.mean_us(),
        reply_us: delta.query_reply.mean_us(),
        shed,
        query_errors,
        parse_us: mean(&[ing.parse_us.as_slice(), ana.parse_us.as_slice()].concat()),
        rows_oltp: mean(&ana.oltp_rows),
        rows_olap: mean(&ana.olap_rows),
        wal_bytes_per_user_byte: wal_written_after.saturating_sub(wal_written_before) as f64
            / ingest_user_bytes.max(1) as f64,
        shredded_windows: delta.shredded as f64,
        setup_insert_us: mean(&preload_us),
        delta,
        batches,
    };
    report.means(
        mean(&ing.latency_us),
        mean(&[ana.oltp_us.as_slice(), ana.olap_us.as_slice()].concat()),
        mean(&layers.batches.engine_us),
        layers.delta.query_total.mean_us(),
    );
    report.layers(&layers);

    if let Some(mid) = snap_switch {
        let a = LayerDelta::between(&snap_start, &mid);
        let b = LayerDelta::between(&mid, &snap_end);
        let n_ins = ing.latency_us.len().max(1) as f64;
        let pump_ack_in_a: u64 = pump
            .batches
            .iter()
            .filter(|x| x.start_us < switch_us)
            .map(|x| x.ack_us)
            .sum();
        report.attribute(Attribution::served(
            "served INSERT",
            ing.round_trip_us / n_ins,
            &a,
            n_ins,
            Some((a.commit_ack.sum_us.saturating_sub(pump_ack_in_a)) as f64 / n_ins),
        ));
        let n_sel = selects.max(1) as f64;
        report.attribute(Attribution::served(
            "served SELECT (with its DECLARE PURPOSE when the purpose changes)",
            ana.round_trip_us / n_sel,
            &b,
            n_sel,
            None,
        ));
        report.attribute(Attribution::batch(
            "pump batch (under served load)",
            &layers.batches,
        ));
    }
    Ok(report.finish(tally))
}
