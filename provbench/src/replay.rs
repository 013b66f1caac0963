//! `paper-replay`: the paper's own experiment, in-process on one
//! thread. Each round persists the combined workload
//! (`workloads::Combined::small()`: the paper's dataset, seed 2009)
//! through all three §4 architectures on worlds seeded from `--seed`
//! with the default latency model (eventual consistency, sampled
//! latencies, SQS receive sampling), reads
//! every file back from each, and runs the Table 3 query set on the
//! S3-scan engine (architecture 1) and the SimpleDB engine
//! (architecture 2): Q1 over everything, Q1 for every file, and Q2 and
//! Q3 for every program in the trace. Neither the frontend nor
//! `ServeHandle` runs.

use std::time::{Duration, Instant};

use pass::{FileFlush, ObjectKind, ObjectRef};
use provenance_cloud::layout::{BUCKET, DATA_PREFIX};
use provenance_cloud::{
    ProvQuery, ProvenanceStore, QueryAnswer, S3SimpleDb, S3SimpleDbSqs, StandaloneS3,
};
use sim_s3::S3;
use sim_simpledb::SimpleDb;
use simworld::{Blob, MeterSnapshot, SimWorld};
use workloads::Combined;

use crate::corpus::Expected;
use crate::layers;
use crate::oracle;
use crate::report::{count, Outcome};
use crate::stats::{mean, median, ms, per, quantile, Ledger};
use crate::Args;

/// The architectures in paper order, as Table 1 labels them.
const ARCHS: [&str; 3] = ["s3", "s3+simpledb", "s3+simpledb+sqs"];

/// One architecture's store and the handles the checks need.
struct Arch {
    world: SimWorld,
    s3: S3,
    db: Option<SimpleDb>,
    store: Box<dyn ProvenanceStore>,
}

fn build(seed: u64) -> Vec<Arch> {
    ARCHS
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let world = SimWorld::new(seed.wrapping_mul(3).wrapping_add(i as u64));
            let (s3, db, store): (S3, _, Box<dyn ProvenanceStore>) = match i {
                0 => {
                    let store = StandaloneS3::new(&world);
                    (store.s3().clone(), None, Box::new(store))
                }
                1 => {
                    let store = S3SimpleDb::new(&world);
                    let db = Some(store.simpledb().clone());
                    (store.s3().clone(), db, Box::new(store))
                }
                _ => {
                    let store = S3SimpleDbSqs::new(&world, "replay");
                    let db = Some(store.simpledb().clone());
                    (store.s3().clone(), db, Box::new(store))
                }
            };
            Arch {
                world,
                s3,
                db,
                store,
            }
        })
        .collect()
}

/// Bytes under `data/` in an architecture's bucket.
fn stored_data_bytes(s3: &S3) -> u64 {
    s3.latest_keys(BUCKET, DATA_PREFIX)
        .iter()
        .filter_map(|k| s3.latest_object(BUCKET, k))
        .map(|o| o.body.len())
        .sum()
}

#[derive(Default)]
struct Pool {
    setup_s: Vec<f64>,
    observe_ms: Vec<f64>,
    throughput: Vec<f64>,
    record_ms: Vec<f64>,
    flush_ms: Vec<f64>,
    /// Verified reads (architectures 2 and 3).
    read_ms: Vec<f64>,
    atomic_read_ms: Vec<f64>,
    /// Q1 of one object on the SimpleDB engine (the index lookup).
    q1_ms: Vec<f64>,
    /// Q3 on the SimpleDB engine (the walk).
    q3_ms: Vec<f64>,
    /// Every query call, whatever its kind.
    query_ms: Vec<f64>,
    query_s: Vec<f64>,
    wall: [Vec<f64>; 2],
    legs: Ledger,
}

/// What one round's persist phase produced, for the bill and the facts
/// (identical every round of a run: the replay is deterministic).
struct Persisted {
    deltas: Vec<MeterSnapshot>,
    usd: f64,
    virtual_s: f64,
    flushes: u64,
    user_bytes: u64,
    stored_bytes: u64,
}

/// Runs `paper-replay` for `args.seconds` of whole rounds.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    match provenance_cloud::full_property_table(args.seed) {
        Ok(rows) => {
            if let Err(e) = oracle::table1_matches(&rows) {
                out.mismatch(e);
            }
        }
        Err(e) => out.mismatch(format!("table 1: {e}")),
    }
    let mut pool = Pool::default();
    let mut expected: Option<(Expected, Vec<String>)> = None;
    let mut persisted: Option<Persisted> = None;
    let deadline = Duration::from_secs(args.seconds);
    let mut started = Instant::now();
    let mut round = 0usize;
    // Round 0 warms the allocator and caches: its checks and operation
    // counts stand, its timings are dropped and the clock starts after it.
    while round < crate::min_rounds(args) || started.elapsed() < deadline {
        let traced = crate::traced_round(args, round);
        let setup = Instant::now();
        let (flushes, _) = Combined::small().flushes();
        pool.observe_ms.push(ms(setup.elapsed()));
        let mut archs = build(args.seed);
        pool.setup_s.push(setup.elapsed().as_secs_f64());
        let (expected, programs) = expected.get_or_insert_with(|| {
            let e = Expected::of(&flushes);
            let programs = e.programs();
            (e, programs)
        });

        let raw: u64 = expected.files.values().map(|(_, len, _)| len).sum();

        let start = Instant::now();
        let mut ops = 0u64;
        let mut legs = Ledger::default();
        let this = persist_phase(&mut archs, &flushes, raw, &mut pool, &mut out);
        ops += this.flushes + archs.len() as u64;
        for arch in &archs {
            arch.world.settle();
        }
        ops += read_phase(&mut archs, expected, &mut pool, &mut out);
        let queries = Instant::now();
        ops += query_phase(
            &mut archs, expected, programs, &mut pool, &mut legs, &mut out,
        );
        pool.query_s.push(queries.elapsed().as_secs_f64());
        let wall = start.elapsed().as_secs_f64();
        pool.wall[usize::from(traced)].push(wall);
        pool.throughput.push(per(ops as f64, wall));
        for (arch, label) in archs.iter().zip(ARCHS) {
            let data = stored_data_bytes(&arch.s3);
            if data != raw {
                out.mismatch(format!(
                    "{label}: {data} data bytes stored, generated {raw}"
                ));
            }
        }
        if traced {
            pool.legs.absorb(&legs);
            let files: Vec<(String, Blob)> = flushes
                .iter()
                .filter(|f| f.kind == ObjectKind::File)
                .map(|f| (f.object.name.clone(), f.data.clone()))
                .collect();
            let items: Vec<String> = expected.records.keys().map(ObjectRef::item_name).collect();
            let arch2 = &archs[1];
            let db = arch2.db.as_ref().expect("architecture 2 has SimpleDB");
            layers::probe(&mut out, &arch2.s3, db, &files, &items);
        }
        if let Some(first) = &persisted {
            if (first.usd, first.virtual_s, first.stored_bytes)
                != (this.usd, this.virtual_s, this.stored_bytes)
            {
                out.mismatch("the replay's bill, virtual time or storage changed between rounds");
            }
        }
        persisted = Some(this);
        if round == 0 {
            pool = Pool::default();
            started = Instant::now();
        }
        round += 1;
    }
    out.rounds = round;
    let p = persisted.expect("at least one round");

    out.set("setup_s", median(&pool.setup_s));
    out.set("throughput_ops_s", median(&pool.throughput));
    let op_ms: Vec<f64> = [
        &pool.record_ms,
        &pool.flush_ms,
        &pool.read_ms,
        &pool.atomic_read_ms,
        &pool.query_ms,
    ]
    .into_iter()
    .flatten()
    .copied()
    .collect();
    out.set("op_p50_ms", median(&op_ms));
    out.set("op_p99_ms", quantile(&op_ms, 0.99));
    out.set("query_s", median(&pool.query_s));
    out.set("record_p50_ms", median(&pool.record_ms));
    out.set("record_p99_ms", quantile(&pool.record_ms, 0.99));
    out.set("flush_p50_ms", median(&pool.flush_ms));
    out.set("read_p50_ms", median(&pool.read_ms));
    out.set("read_p99_ms", quantile(&pool.read_ms, 0.99));
    out.set("query_p50_ms", median(&pool.q1_ms));
    out.set("lineage_p50_ms", median(&pool.q3_ms));
    let requests: u64 = p.deltas.iter().map(MeterSnapshot::total_ops).sum();
    out.set(
        "billed_requests_per_op",
        per(requests as f64, p.flushes as f64),
    );
    out.set("usd_per_1k_ops", per(p.usd * 1000.0, p.flushes as f64));
    out.set(
        "storage_overhead",
        per(
            p.stored_bytes as f64 - p.user_bytes as f64,
            p.user_bytes as f64,
        ),
    );
    if args.trace {
        layers::set_meter_counts(&mut out, &p.deltas, p.flushes as f64);
        let legs = &pool.legs;
        out.set("arch.persist_us", mean(&pool.record_ms) * 1e3);
        out.set("arch.flush_ms", mean(&pool.flush_ms));
        out.set("readpath.read_us", mean(&pool.read_ms) * 1e3);
        for names in QUERY_LEGS {
            for name in names.into_iter().take(3) {
                out.set(name, legs.mean_us(name) / 1e3);
            }
        }
        out.set(
            "simworld.virtual_ms_per_op",
            per(p.virtual_s * 1e3, p.flushes as f64),
        );
        out.set("pass.observe_ms", mean(&pool.observe_ms));
        let [plain, traced] = &pool.wall;
        out.set("trace.overhead", per(mean(traced), mean(plain)) - 1.0);
    }
    out.facts.insert("virtual_s", p.virtual_s);
    out.facts.insert("flushes_per_arch", (p.flushes / 3) as f64);
    out.facts
        .insert("raw_bytes_per_arch", (p.user_bytes / 3) as f64);
    out.facts.insert("usd_persist", p.usd);
    out.facts.insert("billed_requests_persist", requests as f64);
    out
}

/// Persists every flush into each architecture, then drains its
/// daemons; returns the phase's bill and facts. `raw` is the bytes of
/// file data in `flushes`.
fn persist_phase(
    archs: &mut [Arch],
    flushes: &[FileFlush],
    raw: u64,
    pool: &mut Pool,
    out: &mut Outcome,
) -> Persisted {
    let mut p = Persisted {
        deltas: Vec::new(),
        usd: 0.0,
        virtual_s: 0.0,
        flushes: 0,
        user_bytes: 0,
        stored_bytes: 0,
    };
    for (i, arch) in archs.iter_mut().enumerate() {
        let before = arch.world.meters();
        let t0 = arch.world.now();
        let mut failed = 0;
        for flush in flushes {
            let start = Instant::now();
            match arch.store.persist(flush) {
                Ok(()) => pool.record_ms.push(ms(start.elapsed())),
                Err(e) => {
                    failed += 1;
                    out.mismatch(format!(
                        "{} persist {}: {e}",
                        ARCHS[i],
                        flush.object.render()
                    ));
                }
            }
        }
        count(&mut out.classes, "persist", flushes.len() as u64, failed);
        let start = Instant::now();
        let drained = arch.store.run_daemons_until_idle();
        if i == 2 {
            pool.flush_ms.push(ms(start.elapsed()));
        }
        count(&mut out.classes, "drain", 1, u64::from(drained.is_err()));
        if let Err(e) = drained {
            out.mismatch(format!("{} drain: {e}", ARCHS[i]));
        }
        let after = arch.world.meters();
        p.virtual_s += arch.world.now().saturating_since(t0).as_micros() as f64 / 1e6;
        p.usd += layers::usd(&before, &after);
        p.stored_bytes += after.total_stored_bytes();
        p.deltas.push(after - before);
        p.flushes += flushes.len() as u64;
        p.user_bytes += raw;
    }
    p
}

/// Reads every file back from each architecture and checks the bytes.
fn read_phase(archs: &mut [Arch], expected: &Expected, pool: &mut Pool, out: &mut Outcome) -> u64 {
    let mut ops = 0;
    for (i, arch) in archs.iter_mut().enumerate() {
        let mut failed = 0;
        for name in expected.files.keys() {
            let start = Instant::now();
            match arch.store.read(name) {
                Ok(read) => {
                    // Architecture 1 reads one atomic unit; the others
                    // run the verified read the paper's read path is.
                    let took = ms(start.elapsed());
                    if i == 0 {
                        pool.atomic_read_ms.push(took);
                    } else {
                        pool.read_ms.push(took);
                    }
                    if let Err(e) = oracle::read_matches(name, &read, expected) {
                        out.mismatch(format!("{}: {e}", ARCHS[i]));
                    }
                }
                Err(e) => {
                    failed += 1;
                    out.mismatch(format!("{} read {name}: {e}", ARCHS[i]));
                }
            }
        }
        count(
            &mut out.classes,
            "read",
            expected.files.len() as u64,
            failed,
        );
        ops += expected.files.len() as u64;
    }
    ops
}

/// Ledger names of the query legs: per engine, Q1 over everything, Q2,
/// Q3, and Q1 for one object.
const QUERY_LEGS: [[&str; 4]; 2] = [
    [
        "query.s3scan.q1_ms",
        "query.s3scan.q2_ms",
        "query.s3scan.q3_ms",
        "query.s3scan.q1_one_ms",
    ],
    [
        "query.simpledb.q1_ms",
        "query.simpledb.q2_ms",
        "query.simpledb.q3_ms",
        "query.simpledb.q1_one_ms",
    ],
];

/// Runs one query on both engines, timing each and checking that they
/// agree item for item. Returns the S3-scan engine's answer.
fn both(
    archs: &mut [Arch],
    query: &ProvQuery,
    leg: usize,
    legs: &mut Ledger,
    out: &mut Outcome,
) -> (Option<QueryAnswer>, [f64; 2]) {
    let mut answers = Vec::new();
    let mut took = [0.0; 2];
    for (e, names) in QUERY_LEGS.iter().enumerate() {
        let start = Instant::now();
        let answer = archs[e].store.query(query);
        let elapsed = start.elapsed();
        took[e] = ms(elapsed);
        legs.add(names[leg], elapsed);
        match answer {
            Ok(a) => answers.push(a),
            Err(err) => out.mismatch(format!("{} {query:?}: {err}", names[leg])),
        }
    }
    let class = ["q1_all", "q2", "q3", "q1"][leg];
    count(&mut out.classes, class, 2, 2 - answers.len() as u64);
    if let [a, b] = answers.as_slice() {
        if let Err(e) = oracle::engines_agree(&format!("{query:?}"), a, b) {
            out.mismatch(e);
        }
    }
    (answers.into_iter().next(), took)
}

/// The Table 3 query set on both engines, checked against the trace.
fn query_phase(
    archs: &mut [Arch],
    expected: &Expected,
    programs: &[String],
    pool: &mut Pool,
    legs: &mut Ledger,
    out: &mut Outcome,
) -> u64 {
    let mut ops = 0;
    let (all, took) = both(archs, &ProvQuery::ProvenanceOfAll, 0, legs, out);
    pool.query_ms.extend(took);
    ops += 2;
    if let Some(all) = all {
        let want = expected.records.keys().cloned().collect();
        if let Err(e) = oracle::set_matches("q1 all", &all, &want, expected) {
            out.mismatch(e);
        }
    }
    for (name, (version, _, _)) in &expected.files {
        let object = ObjectRef::new(name.clone(), *version);
        let query = ProvQuery::ProvenanceOf {
            name: name.clone(),
            version: *version,
        };
        let (answer, took) = both(archs, &query, 3, legs, out);
        pool.q1_ms.push(took[1]);
        pool.query_ms.extend(took);
        ops += 2;
        if let Some(answer) = answer {
            if let Err(e) = oracle::q1_matches(&object, &answer, expected) {
                out.mismatch(e);
            }
        }
    }
    for program in programs {
        let query = ProvQuery::OutputsOf {
            program: program.clone(),
        };
        let (answer, took) = both(archs, &query, 1, legs, out);
        pool.query_ms.extend(took);
        ops += 2;
        if let Some(answer) = answer {
            let want = expected.outputs_of(program);
            if let Err(e) = oracle::set_matches(&format!("q2 {program}"), &answer, &want, expected)
            {
                out.mismatch(e);
            }
        }
        let query = ProvQuery::DescendantsOf {
            program: program.clone(),
        };
        let (answer, took) = both(archs, &query, 2, legs, out);
        pool.q3_ms.push(took[1]);
        pool.query_ms.extend(took);
        ops += 2;
        if let Some(answer) = answer {
            let want = expected.descendants_of(program);
            if let Err(e) = oracle::set_matches(&format!("q3 {program}"), &answer, &want, expected)
            {
                out.mismatch(e);
            }
        }
    }
    ops
}
