//! Writing experiment outputs under `results/`.

use std::fs;
use std::path::{Path, PathBuf};

/// The repository's `results/` directory (created on demand), wherever
/// the binary runs from: resolved at compile time from this crate's
/// manifest directory, two levels below the workspace root.
pub fn results_dir() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let dir = root
        .expect("crates/bench is two levels deep")
        .join("results");
    fs::create_dir_all(&dir).expect("cannot create results/");
    dir
}

/// Write one result file (overwrites) and return its path.
pub fn write_result(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_and_read_back() {
        let path = write_result("self_test.txt", "hello\n");
        assert_eq!(fs::read_to_string(&path).unwrap(), "hello\n");
        fs::remove_file(path).unwrap();
    }
}
