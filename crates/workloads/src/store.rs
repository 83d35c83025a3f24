//! The on-disk SJPG store a materialized [`crate::ImageFolderDataset`]
//! reads its images from, one file per record, the way torchvision's
//! `ImageFolder` finds a dataset on disk.
//!
//! A record's image is a pure function of its content seed, its
//! dimensions and the encode quality, so that tuple addresses its file:
//! `<root>/sjpg/r<STORE_REVISION>/<seed>-<w>x<h>-q<quality>.sjpg`, and
//! the store needs no index. It fills lazily: the first use of a record
//! synthesizes and encodes it and writes the file atomically, so workers
//! filling the same record at once race benignly. The store holds the
//! dataset's encoded size, and deleting it is always safe.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use lotus_codec::{Codec, CodecError, EncodedImage};
use lotus_core::exec::write_atomic;
use lotus_data::{Image, ImageRecord};
use lotus_sim::Span;
use lotus_transforms::TransformObserver;
use lotus_uarch::CpuThread;

/// Revision of the stored files' content. Bump it whenever the encoder's
/// output for a given image changes (the golden hash in this module's
/// tests pins it), so files written by an older encoder are never
/// decoded.
pub(crate) const STORE_REVISION: u32 = 1;

/// The quality every stored file is encoded at.
pub(crate) const STORE_QUALITY: u8 = 85;

/// A per-record SJPG file store under one root directory.
#[derive(Debug, Clone)]
pub(crate) struct ImageStore {
    root: PathBuf,
}

impl ImageStore {
    /// A store under `root`. Touches no file: the directory is created
    /// by the first write.
    #[must_use]
    pub(crate) fn new(root: impl Into<PathBuf>) -> ImageStore {
        ImageStore { root: root.into() }
    }

    /// The directory the files live in.
    #[must_use]
    pub(crate) fn dir(&self) -> PathBuf {
        self.root.join(format!("sjpg/r{STORE_REVISION}"))
    }

    /// The file that holds `record`.
    #[must_use]
    pub(crate) fn path_of(&self, record: &ImageRecord) -> PathBuf {
        self.dir().join(format!(
            "{:016x}-{}x{}-q{STORE_QUALITY}.sjpg",
            record.content_seed, record.width, record.height
        ))
    }

    /// Decodes `record` on `cpu`, from its stored file when there is one.
    ///
    /// A hit reads the file, reports the read to `observer` (\[T0\]) and
    /// decodes it. A miss synthesizes the record and encodes it, charging
    /// the encode to a scratch cost-model thread (a stored file was
    /// encoded offline, so only decode cost lands on `cpu`), writes the
    /// file, and decodes the fresh encode. A stored file that does not
    /// parse, holds another image's header or fails to decode is a miss,
    /// and is overwritten. A failed write only leaves the store cold.
    ///
    /// # Errors
    ///
    /// Returns the [`CodecError`] of a fresh encode that fails to decode.
    pub(crate) fn decode(
        &self,
        record: &ImageRecord,
        codec: &Codec,
        cpu: &mut CpuThread,
        observer: &mut dyn TransformObserver,
    ) -> Result<Image, CodecError> {
        let path = self.path_of(record);
        let started = Instant::now();
        if let Ok(bytes) = fs::read(&path) {
            let elapsed = Span::from_nanos(started.elapsed().as_nanos() as u64);
            observer.on_file_read(bytes.len() as u64, elapsed);
            let stored = EncodedImage::from_bytes(&bytes).ok().filter(|e| {
                (e.width, e.height, e.quality) == (record.width, record.height, STORE_QUALITY)
            });
            if let Some(Ok(image)) = stored.map(|e| codec.decode(&e, cpu)) {
                return Ok(image);
            }
        }
        let mut scratch = CpuThread::new(Arc::clone(cpu.machine()));
        let encoded = codec.encode(&record.materialize(), STORE_QUALITY, &mut scratch);
        let _ =
            fs::create_dir_all(self.dir()).and_then(|()| write_atomic(&path, &encoded.to_bytes()));
        codec.decode(&encoded, cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_core::exec::fnv1a64;
    use lotus_data::dist::LogNormal;
    use lotus_data::ImageDatasetModel;
    use lotus_transforms::NullObserver;
    use lotus_uarch::{Machine, MachineConfig};

    fn scratch_root(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lotus-store-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_record(index: u64) -> ImageRecord {
        ImageDatasetModel::custom(
            "tiny",
            8,
            5,
            LogNormal::from_mean_std(2_000.0, 500.0),
            (24, 48),
            0.55,
        )
        .record(index)
    }

    fn fixture() -> (Arc<Machine>, Codec, CpuThread) {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let codec = Codec::new(&machine);
        let cpu = CpuThread::new(Arc::clone(&machine));
        (machine, codec, cpu)
    }

    /// Counts the reads the store reports.
    #[derive(Default)]
    struct Reads(Vec<u64>);

    impl TransformObserver for Reads {
        fn on_transform(&mut self, _: &str, _: lotus_sim::Time, _: Span) {}

        fn on_file_read(&mut self, bytes: u64, _elapsed: Span) {
            self.0.push(bytes);
        }
    }

    #[test]
    fn a_hit_reads_exactly_the_bytes_of_a_fresh_encode() {
        let root = scratch_root("hit");
        let store = ImageStore::new(&root);
        let (machine, codec, mut cpu) = fixture();
        let record = small_record(1);
        let mut reads = Reads::default();
        let cold = store.decode(&record, &codec, &mut cpu, &mut reads).unwrap();
        assert!(reads.0.is_empty(), "a miss reads no file");
        let mut fresh_cpu = CpuThread::new(Arc::clone(&machine));
        let fresh = codec.encode(&record.materialize(), STORE_QUALITY, &mut fresh_cpu);
        assert_eq!(fs::read(store.path_of(&record)).unwrap(), fresh.to_bytes());

        let (mut cold_cost, mut warm_cost) = (
            CpuThread::new(Arc::clone(&machine)),
            CpuThread::new(Arc::clone(&machine)),
        );
        fs::remove_file(store.path_of(&record)).unwrap();
        store
            .decode(&record, &codec, &mut cold_cost, &mut NullObserver)
            .unwrap();
        let warm = store
            .decode(&record, &codec, &mut warm_cost, &mut reads)
            .unwrap();
        assert_eq!(warm, cold);
        assert_eq!(reads.0, [fresh.file_bytes()]);
        assert_eq!(
            warm_cost.cursor(),
            cold_cost.cursor(),
            "a hit and a miss charge the same decode"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn two_threads_filling_one_record_leave_one_parseable_file() {
        let root = scratch_root("race");
        let store = ImageStore::new(&root);
        let (machine, codec, _) = fixture();
        let record = small_record(2);
        let barrier = std::sync::Barrier::new(2);
        let images: Vec<Image> = std::thread::scope(|s| {
            let fill = || {
                let mut cpu = CpuThread::new(Arc::clone(&machine));
                barrier.wait();
                store
                    .decode(&record, &codec, &mut cpu, &mut NullObserver)
                    .unwrap()
            };
            let a = s.spawn(fill);
            let b = s.spawn(fill);
            vec![a.join().unwrap(), b.join().unwrap()]
        });
        assert_eq!(images[0], images[1]);
        let files: Vec<PathBuf> = fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files, [store.path_of(&record)], "no temp file is left");
        EncodedImage::from_bytes(&fs::read(&files[0]).unwrap()).unwrap();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_are_replaced_and_still_decode() {
        let root = scratch_root("corrupt");
        let store = ImageStore::new(&root);
        let (_machine, codec, mut cpu) = fixture();
        let record = small_record(3);
        let good = store
            .decode(&record, &codec, &mut cpu, &mut NullObserver)
            .unwrap();
        let path = store.path_of(&record);
        let valid = fs::read(&path).unwrap();
        let mut bad_magic = valid.clone();
        bad_magic[0] = b'X';
        let mut other_image = valid.clone();
        other_image[8..12].copy_from_slice(&(record.width + 1).to_le_bytes());
        for corrupt in [valid[..valid.len() / 2].to_vec(), bad_magic, other_image] {
            fs::write(&path, &corrupt).unwrap();
            let image = store
                .decode(&record, &codec, &mut cpu, &mut NullObserver)
                .unwrap();
            assert_eq!(image, good);
            assert_eq!(fs::read(&path).unwrap(), valid, "the entry is rewritten");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn an_unwritable_root_still_decodes() {
        let root = scratch_root("unwritable");
        fs::create_dir_all(&root).unwrap();
        // A regular file where the store's directory would go: no write
        // under it can succeed, whoever runs the test.
        let blocked = root.join("file");
        fs::write(&blocked, b"not a directory").unwrap();
        let store = ImageStore::new(&blocked);
        let (_machine, codec, mut cpu) = fixture();
        let record = small_record(4);
        for _ in 0..2 {
            let image = store
                .decode(&record, &codec, &mut cpu, &mut NullObserver)
                .unwrap();
            assert_eq!(image.width(), record.width as usize);
        }
        assert!(!store.dir().exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_golden_hash_pins_the_encoder_to_the_store_revision() {
        // If this fails, the encoder's output changed: bump
        // STORE_REVISION and update the hash together, so no store
        // written by the old encoder is ever decoded.
        let (_machine, codec, mut cpu) = fixture();
        let bytes: Vec<u8> = (0..3)
            .flat_map(|i| {
                let record = small_record(i);
                codec
                    .encode(&record.materialize(), STORE_QUALITY, &mut cpu)
                    .to_bytes()
            })
            .collect();
        assert_eq!(
            (STORE_REVISION, fnv1a64(&bytes)),
            (1, 0xdcca_4943_f921_9c22),
            "encoder output changed"
        );
    }
}
