//! Bulk CSV ingestion into a [`DiskStore`].
//!
//! Unlike [`crate::read_csv`], which materializes a full in-memory table,
//! the bulk loader parses each record straight into the typed page
//! buffers of a [`SegmentWriter`](crate::disk::SegmentWriter), through the
//! same record scanner as the in-memory path (see [`crate::csv`]) — no
//! per-cell allocation. With an explicit schema the input streams: memory
//! stays bounded by one record plus one page per column, whatever the file
//! size. With `schema: None` the raw input is read whole (about the file's
//! size) and scanned once: the types are guessed from the first
//! [`PAGE_ROWS`](crate::disk::PAGE_ROWS) records (the same Int ⊂ Float ⊂
//! Str lattice as the in-memory path) and the pages filled under them. A
//! cell the guess does not parse drops the uncommitted segment and reruns
//! full inference and the fill. Quoted fields may span lines on every path.

use std::io::BufRead;

use crate::csv::{fill_inferred, CsvError, Records, Whole};
use crate::disk::manifest::DiskStore;
use crate::disk::DiskError;
use crate::schema::Schema;

/// Bulk-load a CSV (header required) as the persistent table `name` in
/// `store`, committing atomically. Returns the committed row count.
///
/// `page_rows` sets the segment page size (use
/// [`crate::disk::PAGE_ROWS`] unless testing page boundaries). An explicit
/// schema whose arity is not the header's is a [`CsvError::Ragged`] on
/// line 1, and nothing is committed.
pub fn bulk_load_csv(
    store: &DiskStore,
    name: &str,
    mut reader: impl BufRead,
    schema: Option<Schema>,
    page_rows: usize,
) -> Result<u64, DiskError> {
    if let Some(schema) = schema {
        return fill(store, name, Records::open(reader)?, schema, page_rows);
    }
    let mut input = Vec::new();
    reader.read_to_end(&mut input)?;
    let input = Whole::new(&input);
    fill_inferred(
        input,
        |e| matches!(e, DiskError::Csv(CsvError::BadCell { .. })),
        |schema| fill(store, name, Records::whole(input)?, schema, page_rows),
    )
}

/// Stream every record of `recs` into a new segment under `schema`.
fn fill(
    store: &DiskStore,
    name: &str,
    mut recs: Records<'_>,
    schema: Schema,
    page_rows: usize,
) -> Result<u64, DiskError> {
    recs.check_arity(&schema)?;
    store.create_table_with(name, schema.clone(), page_rows, move |w| {
        while recs.next_record()? {
            recs.push_into(&schema, w)
                .map_err(|c| recs.bad_cell(&schema, c))?;
            w.end_row()?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::PAGE_ROWS;
    use crate::interner::Interner;
    use crate::schema;
    use crate::value::{DataType, Value};
    use std::sync::Arc;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("skinner_loader_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn streams_with_explicit_schema() {
        let dir = tmp_dir("explicit");
        let store = DiskStore::open(&dir).unwrap();
        let mut csv = String::from("id,score,tag\n");
        for i in 0..100 {
            csv.push_str(&format!("{i},{}.5,t{}\n", i, i % 3));
        }
        let rows = bulk_load_csv(
            &store,
            "m",
            std::io::BufReader::new(csv.as_bytes()),
            Some(schema![("id", Int), ("score", Float), ("tag", Str)]),
            16,
        )
        .unwrap();
        assert_eq!(rows, 100);
        let interner = Arc::new(Interner::new());
        let t = store.load_table("m", &interner).unwrap().table;
        assert_eq!(t.num_rows(), 100);
        assert_eq!(t.value(42, 0), Value::Int(42));
        assert_eq!(t.value(42, 1), Value::Float(42.5));
        assert_eq!(t.value(42, 2).as_str(), Some("t0"));
        assert_eq!(t.zones().unwrap().npages(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn infers_schema_like_the_memory_path() {
        let dir = tmp_dir("infer");
        let store = DiskStore::open(&dir).unwrap();
        bulk_load_csv(
            &store,
            "n",
            std::io::BufReader::new("a,b,c\n1,2.5,x\n2,3,y\n".as_bytes()),
            None,
            8,
        )
        .unwrap();
        let interner = Arc::new(Interner::new());
        let t = store.load_table("n", &interner).unwrap().table;
        assert_eq!(t.schema().field(0).dtype, DataType::Int);
        assert_eq!(t.schema().field(1).dtype, DataType::Float);
        assert_eq!(t.schema().field(2).dtype, DataType::Str);
        assert_eq!(t.value(1, 1), Value::Float(3.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn load_quoted_newlines(dir: &str, schema: Option<Schema>) {
        let dir = tmp_dir(dir);
        let store = DiskStore::open(&dir).unwrap();
        let csv = "note,n\n\"two\nlines\",1\n\"a \"\"b\"\"\r\nc\",2\n";
        let rows = bulk_load_csv(
            &store,
            "t",
            std::io::BufReader::new(csv.as_bytes()),
            schema,
            8,
        )
        .unwrap();
        assert_eq!(rows, 2);
        let interner = Arc::new(Interner::new());
        let t = store.load_table("t", &interner).unwrap().table;
        assert_eq!(t.value(0, 0).as_str(), Some("two\nlines"));
        assert_eq!(t.value(1, 0).as_str(), Some("a \"b\"\nc"));
        assert_eq!(t.value(1, 1), Value::Int(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quoted_newlines_load_with_inferred_schema() {
        load_quoted_newlines("newline_inferred", None);
    }

    #[test]
    fn quoted_newlines_load_with_explicit_schema() {
        load_quoted_newlines("newline_explicit", Some(schema![("note", Str), ("n", Int)]));
    }

    #[test]
    fn explicit_schema_arity_must_match_the_header() {
        let dir = tmp_dir("arity");
        let store = DiskStore::open(&dir).unwrap();
        let r = bulk_load_csv(
            &store,
            "t",
            std::io::BufReader::new("a,b\n1,2\n".as_bytes()),
            Some(schema![("a", Int), ("b", Int), ("c", Int)]),
            8,
        );
        assert!(matches!(
            r,
            Err(DiskError::Csv(CsvError::Ragged {
                line: 1,
                expected: 3,
                found: 2
            }))
        ));
        assert!(store.table_names().is_empty(), "nothing is committed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn seg_files(dir: &std::path::Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.contains(".seg"))
            .collect()
    }

    /// A header `n,x` and `PAGE_ROWS` integer records, then `tail`.
    fn past_first_page(tail: &str) -> String {
        let mut csv = String::from("n,x\n");
        for i in 0..PAGE_ROWS {
            csv.push_str(&format!("{i},{i}\n"));
        }
        csv + tail
    }

    #[test]
    fn a_type_change_after_the_first_page_falls_back_to_full_inference() {
        let dir = tmp_dir("late_change");
        let store = DiskStore::open(&dir).unwrap();
        let csv = past_first_page("-0,x\n");
        let rows = bulk_load_csv(
            &store,
            "t",
            std::io::BufReader::new(csv.as_bytes()),
            None,
            8,
        )
        .unwrap();
        assert_eq!(rows, PAGE_ROWS as u64 + 1);
        let interner = Arc::new(Interner::new());
        let t = store.load_table("t", &interner).unwrap().table;
        assert_eq!(t.schema().field(0).dtype, DataType::Int);
        assert_eq!(t.schema().field(1).dtype, DataType::Str);
        assert_eq!(t.value(PAGE_ROWS as u32, 0), Value::Int(0));
        assert_eq!(t.value(3, 1).as_str(), Some("3"));
        // The failed fill's temp segment is gone; one committed segment is left.
        let files = seg_files(&dir);
        assert_eq!(files.len(), 1, "{files:?}");
        assert!(!files[0].ends_with(".tmp"), "{files:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_scan_error_past_the_first_page_outranks_an_invalid_name() {
        let dir = tmp_dir("precedence");
        let store = DiskStore::open(&dir).unwrap();
        let load = |csv: &str| {
            bulk_load_csv(
                &store,
                "no-dash",
                std::io::BufReader::new(csv.as_bytes()),
                None,
                8,
            )
        };
        // As when inference scanned everything before creating the segment.
        assert!(matches!(
            load(&past_first_page("1,2,3\n")),
            Err(DiskError::Csv(CsvError::Ragged { line, .. })) if line == PAGE_ROWS + 2
        ));
        assert!(matches!(
            load(&past_first_page("")),
            Err(DiskError::InvalidName(_))
        ));
        assert!(store.table_names().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_commit_writes_the_segment_once() {
        let dir = tmp_dir("failed_commit");
        let store = DiskStore::open(&dir).unwrap();
        // The manifest cannot be written over a directory.
        std::fs::create_dir(dir.join("MANIFEST.tmp")).unwrap();
        let r = bulk_load_csv(
            &store,
            "t",
            std::io::BufReader::new("a\n1\n2\n".as_bytes()),
            None,
            8,
        );
        assert!(matches!(r, Err(DiskError::Io(_))), "{r:?}");
        let files = seg_files(&dir);
        assert_eq!(files.len(), 1, "{files:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_cell_aborts_without_commit() {
        let dir = tmp_dir("badcell");
        let store = DiskStore::open(&dir).unwrap();
        let r = bulk_load_csv(
            &store,
            "t",
            std::io::BufReader::new("id\n1\nnope\n".as_bytes()),
            Some(schema![("id", Int)]),
            8,
        );
        assert!(matches!(
            r,
            Err(DiskError::Csv(CsvError::BadCell { line: 3, .. }))
        ));
        assert!(
            store.table_names().is_empty(),
            "failed load must not commit"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
