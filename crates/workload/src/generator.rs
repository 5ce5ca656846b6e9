//! Transaction-mix generation.

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
}

impl WorkloadGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics if the configuration has no readers or no writers, or if the
    /// per-transaction object counts exceed the number of objects.
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
        WorkloadGenerator {
            zipf: Zipf::new(config.num_objects as usize, spec.zipf_exponent),
            rng: SplitMix::new(spec.seed),
            readers,
            writers,
            next_reader: 0,
            next_writer: 0,
            write_seq: 0,
            generated_reads: 0,
            generated_writes: 0,
            picked: Vec::with_capacity(spec.objects_per_read.max(spec.objects_per_write)),
            spec,
            config: config.clone(),
        }
    }

    /// Draws `count` distinct objects into `picked`, Zipf-weighted, in
    /// ascending order: a repeat draw is discarded and drawn again.
    #[inline]
    fn draw_objects(&mut self, count: usize) -> &[ObjectId] {
        self.picked.clear();
        while self.picked.len() < count {
            let object = ObjectId(self.zipf.sample(&mut self.rng) as u32);
            if let Err(at) = self.picked.binary_search(&object) {
                self.picked.insert(at, object);
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
