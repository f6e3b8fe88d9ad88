//! The seeded corpus every stage reads: ParaDiS per-rank profiles in
//! three encodings, a dense one-iteration corpus for the tree
//! reduction, and pre-encoded ingest batches for the daemon.
//!
//! `--seed` reaches the generators here and nowhere else; the programs
//! under test only ever see the files and bytes this module produces.

use std::io;
use std::path::{Path, PathBuf};

use caliper_format::{CaliWriter, Dataset};
use miniapps::paradis::{generate_rank, ParaDisParams};

/// How much of everything one run generates.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Ranks (= files per encoding) of the main corpus.
    pub ranks: usize,
    /// Main-loop iterations per rank of the main corpus.
    pub iterations: usize,
    /// Files of the dense corpus (one iteration each).
    pub dense_files: usize,
    /// Records per small ingest batch.
    pub small_batch: usize,
    /// Small batches to prepare.
    pub small_batches: usize,
    /// Records per large ingest batch.
    pub large_batch: usize,
    /// Large batches to prepare.
    pub large_batches: usize,
}

/// Generated inputs, all under one directory.
pub struct Corpus {
    /// Records in each file of the main corpus.
    pub records_per_file: usize,
    /// Main-loop iterations of the main corpus.
    pub iterations: usize,
    /// Text `.cali`, one file per rank.
    pub text: Vec<PathBuf>,
    /// CALB v1, one file per rank.
    pub v1: Vec<PathBuf>,
    /// CALB v2, one file per rank.
    pub v2: Vec<PathBuf>,
    /// Dense corpus (CALB v2, `iterations = 1`), one file per rank.
    pub dense: Vec<PathBuf>,
    /// Self-describing text payloads of `small_batch` records each.
    pub small: Vec<Vec<u8>>,
    /// Self-describing text payloads of `large_batch` records each.
    pub large: Vec<Vec<u8>>,
    /// Records per small payload.
    pub small_batch: usize,
    /// Records per large payload.
    pub large_batch: usize,
}

/// Encode `ds.records` in `size`-record slices, each a complete `.cali`
/// stream with its own attribute declarations — what a producer sends
/// as one `BATCH` body.
fn payloads(ds: &Dataset, size: usize, want: usize, out: &mut Vec<Vec<u8>>) -> io::Result<()> {
    for chunk in ds.records.chunks_exact(size) {
        if out.len() == want {
            break;
        }
        let mut writer = CaliWriter::new(Vec::new());
        for record in chunk {
            writer.write_snapshot(ds, record)?;
        }
        out.push(writer.finish()?);
    }
    Ok(())
}

/// A generated corpus whose files are still in memory.
///
/// Generating and encoding is timed as part of `setup_s`; writing is
/// not. On this box's ext4 the same 25 MB in 608 files take 60 ms or
/// 250 ms for seconds at a time, whatever the code under test does — a
/// two-valued fifth to half of the set-up. What a change can move in the
/// written volume shows exactly in `format.*_bytes_per_rec`.
pub struct Encoded {
    corpus: Corpus,
    dir: PathBuf,
    files: Vec<(PathBuf, Vec<u8>)>,
}

impl Encoded {
    /// Write the files; the corpus is then ready to be read.
    pub fn write(self) -> io::Result<Corpus> {
        std::fs::create_dir_all(&self.dir)?;
        for (path, bytes) in &self.files {
            std::fs::write(path, bytes)?;
        }
        Ok(self.corpus)
    }
}

/// Generate and encode the corpus for `seed`, to be written under `dir`.
pub fn generate(dir: &Path, seed: u64, scale: &Scale) -> io::Result<Encoded> {
    let mut files = Vec::new();
    let mut corpus = Corpus {
        records_per_file: 0,
        iterations: scale.iterations,
        text: Vec::new(),
        v1: Vec::new(),
        v2: Vec::new(),
        dense: Vec::new(),
        small: Vec::new(),
        large: Vec::new(),
        small_batch: scale.small_batch,
        large_batch: scale.large_batch,
    };
    let params = ParaDisParams {
        iterations: scale.iterations,
        seed,
    };
    for rank in 0..scale.ranks {
        let ds = generate_rank(&params, rank);
        corpus.records_per_file = ds.len();
        let mut file = |ext: &str, bytes: Vec<u8>| -> PathBuf {
            let path = dir.join(format!("paradis-{rank:05}.{ext}"));
            files.push((path.clone(), bytes));
            path
        };
        corpus
            .text
            .push(file("cali", caliper_format::cali::to_bytes(&ds)));
        corpus
            .v1
            .push(file("calb", caliper_format::binary::to_binary(&ds)));
        corpus
            .v2
            .push(file("calb2", caliper_format::to_binary_v2(&ds)));
        // Small batches come from the even ranks, large ones from the
        // odd ranks, so the two phases never send the same records.
        if rank % 2 == 0 {
            payloads(
                &ds,
                scale.small_batch,
                scale.small_batches,
                &mut corpus.small,
            )?;
        } else {
            payloads(
                &ds,
                scale.large_batch,
                scale.large_batches,
                &mut corpus.large,
            )?;
        }
    }
    if corpus.small.len() < scale.small_batches || corpus.large.len() < scale.large_batches {
        return Err(io::Error::other(format!(
            "corpus too small for the ingest phases: {} of {} small and {} of {} large batches",
            corpus.small.len(),
            scale.small_batches,
            corpus.large.len(),
            scale.large_batches
        )));
    }
    let dense = ParaDisParams {
        iterations: 1,
        seed,
    };
    for rank in 0..scale.dense_files {
        let path = dir.join(format!("dense-{rank:05}.calb2"));
        files.push((
            path.clone(),
            caliper_format::to_binary_v2(&generate_rank(&dense, rank)),
        ));
        corpus.dense.push(path);
    }
    Ok(Encoded {
        corpus,
        dir: dir.to_path_buf(),
        files,
    })
}

impl Corpus {
    /// Records in the first `files` files of the main corpus.
    pub fn records(&self, files: usize) -> usize {
        files * self.records_per_file
    }
}
