//! `lookup`: a preloaded S3+SimpleDB+SQS store with the closure index
//! served, read by two clients over a Unix socket in a closed loop:
//! verified `Read`s and Q1 `ProvenanceOf` zipf(0.99)-skewed over the
//! files, and Q3 `DescendantsOf` on the chain programs, in turn (the
//! even rotation of the repository's `loadgen`, without Q2). It loads the
//! read path: reply encoding, the verified read's MD5, S3 and SimpleDB
//! point reads under two concurrent readers and closure-index point
//! reads. The writer mutex, WAL and daemon stay idle.
//!
//! Set-up (preload in-process through `ServeHandle`, server bind) runs
//! [`SETUPS`] times; the measured phase then repeats whole rounds of a
//! fixed request sequence per client.

use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use frontend::{Client, Command, Reply, Server};
use pass::{ObjectKind, ObjectRef};
use provenance_cloud::{ProvQuery, ServeHandle};
use sim_s3::S3;
use sim_simpledb::SimpleDb;
use simworld::{Blob, SimWorld};
use workloads::ZipfKeys;

use crate::corpus::{splitmix, Corpus, Expected};
use crate::layers::{self, Probe};
use crate::net;
use crate::oracle;
use crate::report::{count, Outcome};
use crate::stats::{mean, median, ms, per, quantile, Ledger};
use crate::Args;

/// Chains in the preloaded store.
pub const CHAINS: usize = 40;
/// Steps per chain: 40 × (1 + 25) files and 40 × 25 processes.
pub const STEPS: usize = 25;
/// Records between `Flush`es while preloading.
pub const FLUSH_EVERY: usize = 64;
/// Times set-up runs per run (the median is reported).
pub const SETUPS: usize = 5;
/// Client threads and connections.
pub const CLIENTS: usize = 2;
/// Requests per client per round: 100 of each class.
pub const ROUND: usize = 300;
/// Zipf skew of reads and Q1 over the files.
pub const THETA: f64 = 0.99;

/// One request of a client's round.
#[derive(Clone, Debug)]
enum Request {
    Read(String),
    Q1(ObjectRef),
    Q3(String),
}

impl Request {
    fn class(&self) -> usize {
        match self {
            Request::Read(_) => 0,
            Request::Q1(_) => 1,
            Request::Q3(_) => 2,
        }
    }

    /// The command this request sends.
    fn command(&self) -> Command {
        match self {
            Request::Read(name) => Command::Read(name.clone()),
            Request::Q1(object) => Command::Query(ProvQuery::ProvenanceOf {
                name: object.name.clone(),
                version: object.version,
            }),
            Request::Q3(program) => Command::Query(ProvQuery::DescendantsOf {
                program: program.clone(),
            }),
        }
    }

    /// The same request below the wire.
    fn probe(&self) -> Probe {
        match (self, self.command()) {
            (_, Command::Read(name)) => Probe::Read(name),
            (Request::Q3(_), Command::Query(query)) => Probe::Q3(query),
            (_, Command::Query(query)) => Probe::Q1(query),
            _ => unreachable!("requests send reads and queries"),
        }
    }
}

const CLASSES: [&str; 3] = ["read", "q1", "q3"];

/// Zipf rank `r` → a file. Ranks walk the files in size order along the
/// van der Corput sequence, so every prefix of hot ranks spreads evenly
/// over the size range: the seed decides which files (and sizes) exist,
/// but not whether the hottest few happen to be the largest.
fn by_rank(corpus: &Corpus) -> Vec<&str> {
    let mut files: Vec<(u64, &str)> = corpus
        .flushes
        .iter()
        .filter(|f| f.kind == ObjectKind::File)
        .map(|f| (f.data.len(), f.object.name.as_str()))
        .collect();
    files.sort_unstable();
    let bits = usize::BITS - files.len().leading_zeros();
    (0..1usize << bits)
        .map(|j| j.reverse_bits() >> (usize::BITS - bits))
        .filter(|&i| i < files.len())
        .map(|i| files[i].1)
        .collect()
}

fn requests(corpus: &Corpus, seed: u64, client: usize) -> Vec<Request> {
    let files = by_rank(corpus);
    let mut zipf = ZipfKeys::new(files.len(), THETA, seed.wrapping_add(client as u64));
    let mut uniform = seed ^ (client as u64) << 32;
    (0..ROUND)
        .map(|i| match i % 3 {
            0 => Request::Read(files[zipf.next_index()].to_string()),
            1 => Request::Q1(ObjectRef::new(files[zipf.next_index()], 1)),
            _ => {
                let c = splitmix(&mut uniform) % corpus.chains.len() as u64;
                Request::Q3(corpus.chains[c as usize].program.clone())
            }
        })
        .collect()
}

/// A preloaded, served store.
struct Served {
    world: SimWorld,
    s3: S3,
    db: SimpleDb,
    server: Server,
    clients: Vec<Client<UnixStream>>,
}

/// Set-up: generate the corpus, preload it through `ServeHandle`
/// (timing each flush), bind the server, connect clients.
fn set_up(seed: u64, pool: &mut Pool) -> (Corpus, Served) {
    let observe = Instant::now();
    let corpus = Corpus::chains("lookup", CHAINS, STEPS, seed, 1_000_000);
    pool.observe_ms.push(ms(observe.elapsed()));
    let world = SimWorld::counting();
    let store = oracle::arch3_serving(&world, "lookup");
    let (s3, db) = (store.s3().clone(), store.simpledb().clone());
    let handle = ServeHandle::new(store);
    for (i, flush) in corpus.flushes.iter().enumerate() {
        handle.record(flush).expect("preload record");
        if (i + 1) % FLUSH_EVERY == 0 || i + 1 == corpus.flushes.len() {
            let start = Instant::now();
            handle.flush().expect("preload flush");
            pool.flush_ms.push(ms(start.elapsed()));
        }
    }
    let path = net::socket_path("lookup");
    let server = Server::bind_unix(handle, &path, CLIENTS).expect("bind the benchmark socket");
    let clients = (0..CLIENTS)
        .map(|_| net::connect(&path).expect("connect to the benchmark socket"))
        .collect();
    let served = Served {
        world,
        s3,
        db,
        server,
        clients,
    };
    (corpus, served)
}

/// What the oracles expect of every request.
struct Oracle {
    expected: Expected,
    descendants: BTreeMap<String, std::collections::BTreeSet<ObjectRef>>,
}

fn check(request: &Request, reply: &Reply, oracle: &Oracle) -> Result<(), String> {
    match (request, reply) {
        (Request::Read(name), Reply::Read(read)) => {
            oracle::read_matches(name, read, &oracle.expected)
        }
        (Request::Q1(object), Reply::Query(answer)) => {
            oracle::q1_matches(object, answer, &oracle.expected)
        }
        (Request::Q3(program), Reply::Query(answer)) => oracle::set_matches(
            program,
            answer,
            &oracle.descendants[program],
            &oracle.expected,
        ),
        _ => Err(format!("{request:?}: reply of the wrong kind")),
    }
}

/// One client's round.
#[derive(Default)]
struct Side {
    ms: [Vec<f64>; 3],
    failed: [u64; 3],
    codec: Ledger,
    frame_bytes: u64,
    errors: Vec<String>,
}

fn call(client: &mut Client<UnixStream>, command: &Command) -> Result<Reply, String> {
    match command {
        Command::Read(name) => net::guarded(|| client.read(name)).map(Reply::Read),
        Command::Query(query) => net::guarded(|| client.query(query)).map(Reply::Query),
        _ => unreachable!("requests send reads and queries"),
    }
}

fn side(client: &mut Client<UnixStream>, round: &[Request], oracle: &Oracle, traced: bool) -> Side {
    let mut side = Side::default();
    for request in round {
        let class = request.class();
        let command = request.command();
        let start = Instant::now();
        match call(client, &command) {
            Ok(reply) => {
                side.ms[class].push(ms(start.elapsed()));
                if let Err(e) = check(request, &reply, oracle) {
                    side.errors.push(e);
                }
                if traced {
                    let (took, bytes) = net::codec_cost(&command, &reply);
                    side.codec.add(CLASSES[class], took);
                    side.frame_bytes += bytes;
                }
            }
            Err(e) => {
                side.failed[class] += 1;
                side.errors.push(format!("{request:?}: {e}"));
            }
        }
    }
    side
}

#[derive(Default)]
struct Pool {
    setup_s: Vec<f64>,
    observe_ms: Vec<f64>,
    /// Preload `Flush`es: the commit-daemon drains of set-up.
    flush_ms: Vec<f64>,
    throughput: Vec<f64>,
    ms: [Vec<f64>; 3],
    wall: [Vec<f64>; 2],
    codec: Ledger,
    frame_bytes: u64,
}

/// Runs `lookup`: [`SETUPS`] set-ups, then `args.seconds` of whole
/// rounds.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut pool = Pool::default();
    let mut served: Option<(Corpus, Served)> = None;
    for _ in 0..SETUPS {
        if let Some((_, old)) = served.take() {
            drop(old.clients);
            old.server.shutdown();
        }
        let start = Instant::now();
        served = Some(set_up(args.seed, &mut pool));
        pool.setup_s.push(start.elapsed().as_secs_f64());
    }
    let (corpus, mut served) = served.expect("at least one set-up");
    let expected = Expected::of(&corpus.flushes);
    let descendants = corpus
        .chains
        .iter()
        .map(|c| (c.program.clone(), expected.descendants_of(&c.program)))
        .collect();
    let oracle = Oracle {
        expected,
        descendants,
    };
    let rounds: Vec<Vec<Request>> = (0..CLIENTS)
        .map(|c| requests(&corpus, args.seed, c))
        .collect();
    out.set(
        "storage_overhead",
        layers::storage_overhead(&served.world.meters(), corpus.data_bytes()),
    );

    let mut before = served.world.meters();
    let deadline = Duration::from_secs(args.seconds);
    let mut started = Instant::now();
    let mut round = 0usize;
    let mut ops = 0u64;
    // Round 0 warms the caches: its checks and operation counts stand,
    // its timings and bill are dropped and the clock starts after it.
    while round < crate::min_rounds(args) || started.elapsed() < deadline {
        let traced = crate::traced_round(args, round);
        let start = Instant::now();
        let sides = net::each_client(&mut served.clients, &rounds, |client, requests| {
            side(client, requests, &oracle, traced)
        });
        let wall = start.elapsed().as_secs_f64();
        let mut done = 0u64;
        for side in &sides {
            for (class, name) in CLASSES.iter().enumerate() {
                let ok = side.ms[class].len() as u64;
                count(
                    &mut out.classes,
                    name,
                    ok + side.failed[class],
                    side.failed[class],
                );
                done += ok;
                pool.ms[class].extend(&side.ms[class]);
            }
            pool.codec.absorb(&side.codec);
            pool.frame_bytes += side.frame_bytes;
            for e in &side.errors {
                out.mismatch(e.clone());
            }
        }
        ops += done;
        pool.wall[usize::from(traced)].push(wall);
        pool.throughput.push(per(done as f64, wall));
        if round == 0 {
            pool.ms = Default::default();
            pool.wall = Default::default();
            pool.throughput.clear();
            pool.codec = Ledger::default();
            pool.frame_bytes = 0;
            ops = 0;
            before = served.world.meters();
            started = Instant::now();
        }
        round += 1;
    }
    let after = served.world.meters();
    out.rounds = round;

    out.set("setup_s", median(&pool.setup_s));
    out.set("throughput_ops_s", median(&pool.throughput));
    let op_ms: Vec<f64> = pool.ms.concat();
    out.set("op_p50_ms", median(&op_ms));
    out.set("op_p99_ms", quantile(&op_ms, 0.99));
    out.set("read_p50_ms", median(&pool.ms[0]));
    out.set("read_p99_ms", quantile(&pool.ms[0], 0.99));
    out.set("query_p50_ms", median(&pool.ms[1]));
    out.set("lineage_p50_ms", median(&pool.ms[2]));
    out.set("flush_p50_ms", median(&pool.flush_ms));
    layers::set_bill(&mut out, &before, &after, ops as f64);

    if args.trace {
        let delta = after - before;
        layers::set_meter_counts(&mut out, &[delta], ops as f64);
        let records = corpus.flushes.len() as f64;
        out.set(
            "closure.values_per_op",
            per(layers::closure_values(&served.db) as f64, records),
        );
        out.set("simworld.virtual_ms_per_op", 0.0);
        let files: Vec<(String, Blob)> = corpus
            .flushes
            .iter()
            .filter(|f| f.kind == ObjectKind::File)
            .map(|f| (f.object.name.clone(), f.data.clone()))
            .collect();
        let items: Vec<String> = oracle
            .expected
            .records
            .keys()
            .map(ObjectRef::item_name)
            .collect();
        layers::probe(&mut out, &served.s3, &served.db, &files, &items);
        let probes: Vec<Probe> = rounds[0].iter().map(Request::probe).collect();
        let legs = layers::below_wire("lookup", &[&corpus.flushes], FLUSH_EVERY, &probes);
        let wire = layers::Wire {
            codec: &pool.codec,
            frame_bytes: pool.frame_bytes,
            class: "read",
            round_trip_us: mean(&pool.ms[0]) * 1e3,
            observe_ms: &pool.observe_ms,
            walls: &pool.wall,
        };
        layers::set_layer_times(&mut out, &legs, &wire);
    }
    drop(served.clients);
    served.server.shutdown();

    out.facts.insert("chains", CHAINS as f64);
    out.facts.insert("steps_per_chain", STEPS as f64);
    out.facts.insert("objects", corpus.flushes.len() as f64);
    out.facts
        .insert("requests_per_client_per_round", ROUND as f64);
    out
}
