//! Transaction-mix generation.
//!
//! A transaction's objects are distinct Zipf draws, listed in ascending
//! order: a repeat draw is discarded and drawn again.  Membership is a
//! bitset over object ids, so a draw is one bit test and a branch-free
//! count, and the list is the set's bits read out in order (clearing them
//! as it goes, over the words the draw touched), with no search and no
//! insertion into a sorted list.  The stream is the one the sorted-insert
//! draw made, bit for bit.

use crate::zipf::Zipf;
use snow_core::hash::SplitMix;
use snow_core::{ClientId, ObjectId, ReadSpec, SystemConfig, TxSpec, Value, WritePairs, WriteSpec};

/// Parameters of a workload mix.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Fraction of transactions that are READs (e.g. 500:1 → 500/501).
    pub read_fraction: f64,
    /// Number of objects each READ transaction touches.
    pub objects_per_read: usize,
    /// Number of objects each WRITE transaction touches.
    pub objects_per_write: usize,
    /// Zipfian skew of object popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The TAO-like default: 500 reads per write, 4-object READs,
    /// 2-object WRITEs, mild skew.
    pub fn tao_like() -> Self {
        WorkloadSpec {
            read_fraction: 500.0 / 501.0,
            objects_per_read: 4,
            objects_per_write: 2,
            zipf_exponent: 0.99,
            seed: 42,
        }
    }

    /// A write-heavy mix used to stress concurrent WRITE behaviour
    /// (e.g. Algorithm C's versions-per-response growth).
    pub fn write_heavy() -> Self {
        WorkloadSpec {
            read_fraction: 0.5,
            objects_per_read: 2,
            objects_per_write: 2,
            zipf_exponent: 0.6,
            seed: 42,
        }
    }

    /// A uniform read-mostly mix.
    pub fn uniform_read_mostly() -> Self {
        WorkloadSpec {
            read_fraction: 0.95,
            objects_per_read: 2,
            objects_per_write: 1,
            zipf_exponent: 0.0,
            seed: 42,
        }
    }
}

/// One generated transaction, assigned to a client of the right role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedTx {
    /// The client that should issue it.
    pub client: ClientId,
    /// The transaction body.
    pub spec: TxSpec,
}

/// Generates transactions for a [`SystemConfig`] according to a
/// [`WorkloadSpec`].
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    config: SystemConfig,
    zipf: Zipf,
    rng: SplitMix,
    readers: Vec<ClientId>,
    writers: Vec<ClientId>,
    next_reader: usize,
    next_writer: usize,
    write_seq: u64,
    generated_reads: u64,
    generated_writes: u64,
    /// The objects of the transaction being drawn, sorted: one buffer for
    /// every draw, copied into the spec's in-place list.
    picked: Vec<ObjectId>,
    /// The objects drawn so far, bit `o % 64` of word `o / 64` for object
    /// `o`: all clear between draws.
    members: Vec<u64>,
}

impl WorkloadGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics if the configuration has no readers or no writers, if the
    /// per-transaction object counts exceed the number of objects, or if
    /// they exceed the objects the Zipf exponent leaves nonzero mass
    /// ([`Zipf::items_with_mass`]): no draw could complete such a
    /// transaction.
    pub fn new(config: &SystemConfig, spec: WorkloadSpec) -> Self {
        let readers: Vec<ClientId> = config.readers().collect();
        let writers: Vec<ClientId> = config.writers().collect();
        assert!(!readers.is_empty(), "workload needs at least one reader");
        assert!(!writers.is_empty(), "workload needs at least one writer");
        assert!(
            spec.objects_per_read <= config.num_objects as usize
                && spec.objects_per_write <= config.num_objects as usize,
            "transactions cannot touch more objects than exist"
        );
        let objects = config.num_objects as usize;
        let zipf = Zipf::new(objects, spec.zipf_exponent);
        assert!(
            spec.objects_per_read.max(spec.objects_per_write) <= zipf.items_with_mass(),
            "the Zipf exponent leaves fewer objects with nonzero mass than a transaction touches"
        );
        WorkloadGenerator {
            zipf,
            rng: SplitMix::new(spec.seed),
            readers,
            writers,
            next_reader: 0,
            next_writer: 0,
            write_seq: 0,
            generated_reads: 0,
            generated_writes: 0,
            picked: Vec::with_capacity(spec.objects_per_read.max(spec.objects_per_write)),
            members: vec![0; objects.div_ceil(64)],
            spec,
            config: config.clone(),
        }
    }

    /// Draws `count` distinct objects into `picked`, Zipf-weighted, in
    /// ascending order: a repeat draw is discarded and drawn again.  The
    /// draws set bits in `members`; the list is read out of the words they
    /// touched, which are left clear.
    #[inline]
    fn draw_objects(&mut self, count: usize) -> &[ObjectId] {
        let (mut held, mut first, mut last) = (0, usize::MAX, 0);
        while held < count {
            let object = self.zipf.sample(&mut self.rng);
            let (word, bit) = (object / 64, 1u64 << (object % 64));
            held += usize::from(self.members[word] & bit == 0);
            self.members[word] |= bit;
            (first, last) = (first.min(word), last.max(word));
        }
        self.picked.clear();
        for word in first..=last {
            let mut bits = std::mem::take(&mut self.members[word]);
            while bits != 0 {
                self.picked.push(ObjectId((word * 64) as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        &self.picked
    }

    /// Generates the next transaction.
    pub fn next_tx(&mut self) -> GeneratedTx {
        let is_read = self.rng.chance(self.spec.read_fraction);
        if is_read {
            self.next_read()
        } else {
            self.next_write()
        }
    }

    /// Generates exactly one WRITE transaction (used by sweeps that control
    /// the read/write interleaving themselves).
    pub fn next_write(&mut self) -> GeneratedTx {
        self.generated_writes += 1;
        self.write_seq += 1;
        let client = self.writers[self.next_writer % self.writers.len()];
        self.next_writer += 1;
        let seq = self.write_seq;
        let objects = self.draw_objects(self.spec.objects_per_write);
        let writes = objects.iter().map(|&o| (o, Value::derived(client.0, seq, o.0)));
        GeneratedTx {
            client,
            spec: TxSpec::Write(WriteSpec::new(writes.collect::<WritePairs>())),
        }
    }

    /// Generates exactly one READ transaction.
    pub fn next_read(&mut self) -> GeneratedTx {
        self.generated_reads += 1;
        let client = self.readers[self.next_reader % self.readers.len()];
        self.next_reader += 1;
        let objects = self.draw_objects(self.spec.objects_per_read);
        GeneratedTx {
            client,
            spec: TxSpec::Read(ReadSpec::new(objects)),
        }
    }

    /// `(reads, writes)` generated so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.generated_reads, self.generated_writes)
    }

    /// The system configuration this generator targets.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::{ClientRole, TxKind};

    #[test]
    fn generator_respects_roles_and_mix() {
        let config = SystemConfig::mwmr(4, 2, 2);
        let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
        for tx in (0..500).map(|_| generator.next_tx()) {
            let role = match tx.spec.kind() {
                TxKind::Read => ClientRole::Reader,
                TxKind::Write => ClientRole::Writer,
            };
            assert_eq!(config.role_of(tx.client), Some(role), "{tx:?}");
            match &tx.spec {
                TxSpec::Read(r) => assert_eq!(r.objects.len(), 2),
                TxSpec::Write(w) => assert_eq!(w.writes.len(), 2),
            }
        }
        let (reads, writes) = generator.counts();
        assert_eq!(reads + writes, 500);
        // Roughly balanced for the 50/50 mix.
        assert!(reads > 150 && writes > 150, "reads={reads} writes={writes}");
    }

    #[test]
    fn tao_like_mix_is_read_dominated() {
        let config = SystemConfig::mwmr(8, 2, 2);
        let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::tao_like());
        for _ in 0..2_000 {
            generator.next_tx();
        }
        let (reads, writes) = generator.counts();
        assert!(reads > writes * 50, "reads={reads} writes={writes}");
    }

    #[test]
    fn explicit_read_and_write_generation() {
        let config = SystemConfig::mwmr(4, 1, 1);
        let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::uniform_read_mostly());
        let w = generator.next_write();
        assert_eq!(w.spec.kind(), TxKind::Write);
        let r = generator.next_read();
        assert_eq!(r.spec.kind(), TxKind::Read);
        assert_eq!(generator.counts(), (1, 1));
        assert_eq!(generator.config().num_servers, 4);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = SystemConfig::mwmr(6, 2, 2);
        let run = || {
            let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::tao_like());
            (0..50).map(|_| generator.next_tx()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// The draw returns what the sorted-insert draw it replaced returned
    /// (the model below, on its own copy of the stream): 10 000 draws of
    /// one to seven objects, on tables of one to three bitset words.
    #[test]
    fn object_draws_equal_the_sorted_insert_model() {
        for objects in [8u32, 16, 65, 130] {
            let config = SystemConfig { num_objects: objects, ..SystemConfig::mwmr(4, 2, 2) };
            let spec = WorkloadSpec { seed: u64::from(objects), ..WorkloadSpec::tao_like() };
            let zipf = Zipf::new(objects as usize, spec.zipf_exponent);
            let mut rng = SplitMix::new(spec.seed);
            let mut generator = WorkloadGenerator::new(&config, spec);
            for draw in 0..10_000 {
                let count = [1, 2, 3, 4, 7][draw % 5];
                let mut model: Vec<ObjectId> = Vec::new();
                while model.len() < count {
                    let object = ObjectId(zipf.sample(&mut rng) as u32);
                    if let Err(at) = model.binary_search(&object) {
                        model.insert(at, object);
                    }
                }
                assert_eq!(generator.draw_objects(count), model, "{objects} objects, draw {draw}");
            }
            assert!(generator.members.iter().all(|&w| w == 0), "a draw leaves its bits set");
        }
    }

    /// At exponent 60 every object but the first has a weight below the
    /// table's precision: no two-object transaction can be drawn, so the
    /// generator refuses the spec instead of drawing forever.
    #[test]
    #[should_panic(expected = "nonzero mass")]
    fn an_exponent_that_leaves_objects_without_mass_is_rejected() {
        let spec = WorkloadSpec {
            objects_per_read: 2,
            objects_per_write: 2,
            zipf_exponent: 60.0,
            ..WorkloadSpec::tao_like()
        };
        let _ = WorkloadGenerator::new(&SystemConfig::mwmr(8, 2, 2), spec);
    }

    #[test]
    fn a_steep_exponent_that_leaves_every_object_mass_draws() {
        let spec = WorkloadSpec {
            objects_per_read: 2,
            objects_per_write: 2,
            zipf_exponent: 10.0,
            ..WorkloadSpec::tao_like()
        };
        let mut generator = WorkloadGenerator::new(&SystemConfig::mwmr(8, 2, 2), spec);
        for _ in 0..100 {
            let tx = generator.next_tx();
            assert_eq!(tx.spec.objects_iter().count(), 2, "{tx:?}");
        }
    }

    #[test]
    #[should_panic]
    fn too_many_objects_per_read_is_rejected() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let spec = WorkloadSpec {
            objects_per_read: 10,
            ..WorkloadSpec::tao_like()
        };
        let _ = WorkloadGenerator::new(&config, spec);
    }
}
