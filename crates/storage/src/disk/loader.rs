//! Bulk CSV ingestion into a [`DiskStore`].
//!
//! Unlike [`crate::read_csv`], which materializes a full in-memory table,
//! the bulk loader parses each record straight into the typed page
//! buffers of a [`SegmentWriter`](crate::disk::SegmentWriter), through the
//! same record scanner as the in-memory path (see [`crate::csv`]) — no
//! per-cell allocation. With an explicit schema the input streams: memory
//! stays bounded by one record plus one page per column, whatever the file
//! size. With `schema: None` the raw input is read whole (about the file's
//! size) and scanned twice, once to infer the types (the same Int ⊂ Float
//! ⊂ Str lattice as the in-memory path) and once to fill the pages. Quoted
//! fields may span lines on every path.

use std::io::BufRead;

use crate::csv::{infer_schema, Records};
use crate::disk::manifest::DiskStore;
use crate::disk::DiskError;
use crate::schema::Schema;

/// Bulk-load a CSV (header required) as the persistent table `name` in
/// `store`, committing atomically. Returns the committed row count.
///
/// `page_rows` sets the segment page size (use
/// [`crate::disk::PAGE_ROWS`] unless testing page boundaries).
pub fn bulk_load_csv(
    store: &DiskStore,
    name: &str,
    mut reader: impl BufRead,
    schema: Option<Schema>,
    page_rows: usize,
) -> Result<u64, DiskError> {
    match schema {
        Some(schema) => fill(store, name, Records::open(reader)?, schema, page_rows),
        None => {
            let mut input = Vec::new();
            reader.read_to_end(&mut input)?;
            let schema = infer_schema(&input)?;
            fill(store, name, Records::open(&input[..])?, schema, page_rows)
        }
    }
}

/// Stream every record of `recs` into a new segment under `schema`.
fn fill(
    store: &DiskStore,
    name: &str,
    mut recs: Records<impl BufRead>,
    schema: Schema,
    page_rows: usize,
) -> Result<u64, DiskError> {
    assert_eq!(
        schema.len(),
        recs.header().len(),
        "schema arity must match the header"
    );
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
    use crate::csv::CsvError;
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
