//! Seeded inputs and the expected answers the oracles compare against.
//!
//! Inputs are PASS traces run through `pass::Observer`, exactly as a
//! client would produce them; the expected answers are computed here
//! from the generated flushes alone (reference edges, names, blob
//! seeds), never by asking the store.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use pass::{FileFlush, ObjectKind, ObjectRef, Observer, RecordKey, RecordValue, TraceEvent};
use simworld::Blob;

use crate::stats::content_hash;

/// The program every chain step after the first runs.
pub const STEP_PROGRAM: &str = "step";

/// Smallest and largest generated object, in bytes (1 to 64 KiB).
pub const MIN_OBJECT: u64 = 1024;
/// See [`MIN_OBJECT`].
pub const MAX_OBJECT: u64 = 64 * 1024;

/// SplitMix64: the benchmark's own seeded stream.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One pipeline chain: a source file, then `steps` processes, each
/// reading the previous file and writing the next. The first step runs
/// the chain's own program, so `DescendantsOf(program)` is exactly the
/// chain's derived objects.
#[derive(Clone, Debug)]
pub struct Chain {
    /// The program of the chain's first step.
    pub program: String,
    /// Every file of the chain, source first.
    pub files: Vec<String>,
}

/// A generated input: flushes in causal order plus the chain layout.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    /// Flushes in the order the observer produced them.
    pub flushes: Vec<FileFlush>,
    /// The chains, in generation order.
    pub chains: Vec<Chain>,
}

impl Corpus {
    /// Generates `chains` chains of `steps` steps under the name prefix
    /// `tag`, with object sizes drawn uniformly from 1 to 64 KiB by the
    /// seed. Process ids start at `first_pid`.
    pub fn chains(tag: &str, chains: usize, steps: usize, seed: u64, first_pid: u32) -> Corpus {
        let mut rng = seed ^ content_hash(tag.as_bytes());
        let mut blob = || {
            let seed = splitmix(&mut rng);
            let len = MIN_OBJECT + splitmix(&mut rng) % (MAX_OBJECT - MIN_OBJECT + 1);
            Blob::synthetic(seed, len)
        };
        let mut observer = Observer::new();
        let mut corpus = Corpus::default();
        let mut pid = first_pid;
        let observe = |observer: &mut Observer, event: TraceEvent, out: &mut Vec<FileFlush>| {
            out.extend(
                observer
                    .observe(event)
                    .expect("well-formed generated trace"),
            );
        };
        for c in 0..chains {
            let program = format!("{tag}-start{c}");
            let source = format!("{tag}/c{c}/src.dat");
            observe(
                &mut observer,
                TraceEvent::source(&source, blob()),
                &mut corpus.flushes,
            );
            let mut files = vec![source];
            for k in 0..steps {
                let exe = if k == 0 {
                    program.as_str()
                } else {
                    STEP_PROGRAM
                };
                let prev = files.last().expect("source pushed").clone();
                let next = format!("{tag}/c{c}/f{k}.dat");
                let data = blob();
                for event in [
                    TraceEvent::exec(pid, exe, format!("{exe} {prev}"), "PATH=/bin", None),
                    TraceEvent::read(pid, &prev),
                    TraceEvent::write(pid, &next),
                    TraceEvent::close(pid, &next, data),
                    TraceEvent::exit(pid),
                ] {
                    observe(&mut observer, event, &mut corpus.flushes);
                }
                pid += 1;
                files.push(next);
            }
            corpus.chains.push(Chain { program, files });
        }
        corpus.flushes.extend(observer.finish());
        corpus
    }

    /// Total bytes of file data in the corpus.
    pub fn data_bytes(&self) -> u64 {
        self.flushes.iter().map(|f| f.data.len()).sum()
    }
}

/// The expected answers for one set of flushes, computed from the
/// flushes alone.
#[derive(Debug, Default)]
pub struct Expected {
    /// Latest version of every file: `(version, length, content hash)`.
    pub files: BTreeMap<String, (u32, u64, u64)>,
    /// Sorted records of every object version.
    pub records: BTreeMap<ObjectRef, Vec<pass::ProvenanceRecord>>,
    /// Objects listing each object as an `input`.
    children: BTreeMap<ObjectRef, Vec<ObjectRef>>,
}

fn text(flush_records: &[pass::ProvenanceRecord], key: &RecordKey) -> Option<String> {
    flush_records.iter().find_map(|r| match (&r.key, &r.value) {
        (k, RecordValue::Text(t)) if k == key => Some(t.clone()),
        _ => None,
    })
}

impl Expected {
    /// Indexes `flushes`, hashing every file's contents.
    pub fn of(flushes: &[FileFlush]) -> Expected {
        let mut e = Expected::default();
        for f in flushes {
            if f.kind == ObjectKind::File {
                let hash = content_hash(&f.data.to_bytes());
                let slot = e.files.entry(f.object.name.clone()).or_default();
                if f.object.version >= slot.0 {
                    *slot = (f.object.version, f.data.len(), hash);
                }
            }
            let mut records = f.records.clone();
            records.sort();
            for r in &f.records {
                if let (RecordKey::Input, RecordValue::Ref(parent)) = (&r.key, &r.value) {
                    e.children
                        .entry(parent.clone())
                        .or_default()
                        .push(f.object.clone());
                }
            }
            e.records.insert(f.object.clone(), records);
        }
        e
    }

    fn is_process_of(&self, object: &ObjectRef, program: &str) -> bool {
        self.records.get(object).is_some_and(|r| {
            text(r, &RecordKey::Type).as_deref() == Some("process")
                && text(r, &RecordKey::Name).as_deref() == Some(program)
        })
    }

    fn is_file(&self, object: &ObjectRef) -> bool {
        self.records
            .get(object)
            .is_some_and(|r| text(r, &RecordKey::Type).as_deref() == Some("file"))
    }

    /// Q2: files with an `input` edge from a process running `program`.
    pub fn outputs_of(&self, program: &str) -> BTreeSet<ObjectRef> {
        let mut out = BTreeSet::new();
        for (parent, kids) in &self.children {
            if self.is_process_of(parent, program) {
                out.extend(kids.iter().filter(|k| self.is_file(k)).cloned());
            }
        }
        out
    }

    /// Q3: everything reachable over `input` edges from the program's
    /// outputs, the outputs themselves excluded.
    pub fn descendants_of(&self, program: &str) -> BTreeSet<ObjectRef> {
        let seeds = self.outputs_of(program);
        let mut seen: BTreeSet<ObjectRef> = seeds.clone();
        let mut queue: VecDeque<ObjectRef> = seeds.iter().cloned().collect();
        while let Some(node) = queue.pop_front() {
            for kid in self.children.get(&node).into_iter().flatten() {
                if seen.insert(kid.clone()) {
                    queue.push_back(kid.clone());
                }
            }
        }
        seen.difference(&seeds).cloned().collect()
    }

    /// Every program a process in the flushes ran, sorted.
    pub fn programs(&self) -> Vec<String> {
        let set: BTreeSet<String> = self
            .records
            .values()
            .filter(|r| text(r, &RecordKey::Type).as_deref() == Some("process"))
            .filter_map(|r| text(r, &RecordKey::Name))
            .collect();
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_other_seed_other_sizes() {
        let a = Corpus::chains("t", 2, 3, 7, 100);
        let b = Corpus::chains("t", 2, 3, 7, 100);
        let c = Corpus::chains("t", 2, 3, 8, 100);
        assert_eq!(a.flushes, b.flushes);
        assert_eq!(a.flushes.len(), c.flushes.len());
        assert_ne!(a.data_bytes(), c.data_bytes());
        for f in &a.flushes {
            if f.kind == ObjectKind::File {
                assert!((MIN_OBJECT..=MAX_OBJECT).contains(&f.data.len()));
            }
        }
    }

    #[test]
    fn descendants_of_a_chain_program_are_its_derived_objects() {
        let corpus = Corpus::chains("t", 2, 4, 1, 100);
        let e = Expected::of(&corpus.flushes);
        let chain = &corpus.chains[1];
        let q3 = e.descendants_of(&chain.program);
        // f0 is the seed (excluded); f1..f3 and the three `step`
        // processes that read f0..f2 follow it.
        let files: Vec<&str> = q3
            .iter()
            .filter(|o| !o.name.starts_with("proc:"))
            .map(|o| o.name.as_str())
            .collect();
        assert_eq!(files, ["t/c1/f1.dat", "t/c1/f2.dat", "t/c1/f3.dat"]);
        assert_eq!(q3.len(), 6);
        assert_eq!(e.outputs_of(&chain.program).len(), 1);
    }
}
