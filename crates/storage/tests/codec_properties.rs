//! Properties of the one byte codec every binary format reads and writes
//! through (`skinner_storage::codec`):
//!
//! * arbitrary bytes fed to every `Reader` primitive never panic and never
//!   read past the end; a failed fixed-width read consumes nothing;
//! * a length prefix over the caller's cap is refused before anything is
//!   allocated for it (checked with a per-thread counting allocator);
//! * every `Writer` primitive round-trips through the matching `Reader`
//!   primitive, and a length or count over its cap fails `finish`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use skinner_storage::codec::{CodecError, Reader, Writer};

/// Counts the bytes the current thread allocates, so a test can show a
/// call allocated nothing while other tests run on other threads.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell`, which never allocates and is skipped during thread teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Apply primitive `op` to `r`, returning whether it succeeded and the
/// width a fixed-width primitive consumes.
fn apply(r: &mut Reader, op: u8, arg: usize) -> (bool, Option<usize>) {
    match op % 11 {
        0 => (r.u8().is_ok(), Some(1)),
        1 => (r.u16().is_ok(), Some(2)),
        2 => (r.u32().is_ok(), Some(4)),
        3 => (r.u64().is_ok(), Some(8)),
        4 => (r.i64().is_ok(), Some(8)),
        5 => (r.f64().is_ok(), Some(8)),
        6 => (r.take(arg).is_ok(), Some(arg)),
        // A huge take must not overflow the cursor.
        7 => (r.take(usize::MAX - arg).is_ok(), Some(usize::MAX - arg)),
        8 => (r.str(arg).is_ok(), None),
        9 => (r.str16(arg).is_ok(), None),
        _ => {
            r.rest();
            (true, None)
        }
    }
}

// The nightly workflow's model-proptests job runs this file with
// PROPTEST_CASES at ten times `cases`: change both together.
proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic_or_overread(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        ops in proptest::collection::vec((any::<u8>(), 0usize..24), 0..24),
    ) {
        let mut r = Reader::new(&bytes);
        for &(op, arg) in &ops {
            let before = r.pos();
            let (ok, width) = apply(&mut r, op, arg);
            prop_assert!(r.pos() <= bytes.len());
            if let Some(width) = width {
                let expect = if ok { before + width } else { before };
                prop_assert_eq!(r.pos(), expect, "op {} arg {}", op, arg);
                prop_assert_eq!(ok, bytes.len() - before >= width);
            }
        }
        let left = bytes.len() - r.pos();
        match r.finish() {
            Ok(()) => prop_assert_eq!(left, 0),
            Err(e) => prop_assert_eq!(e, CodecError::Trailing(left)),
        }
    }

    #[test]
    fn writer_reader_roundtrip(
        a in any::<u8>(),
        b in any::<u16>(),
        c in any::<u32>(),
        d in any::<u64>(),
        e in any::<i64>(),
        f_bits in any::<u64>(),
        s in "\\PC{0,40}",
        t in "[a-z_]{0,12}",
        raw in proptest::collection::vec(any::<u8>(), 0..16),
        n in 0usize..1000,
    ) {
        let mut w = Writer::default();
        w.u8(a);
        w.u16(b);
        w.u32(c);
        w.u64(d);
        w.i64(e);
        w.f64(f64::from_bits(f_bits));
        w.str(&s, s.len());
        w.str16(&t, 12);
        w.count(n, 1000, "element");
        prop_assert!(w.check(n, n, "field"));
        w.bytes(&raw);
        let bytes = w.finish().expect("nothing over its cap");

        let mut r = Reader::new(&bytes);
        prop_assert_eq!(r.u8(), Ok(a));
        prop_assert_eq!(r.u16(), Ok(b));
        prop_assert_eq!(r.u32(), Ok(c));
        prop_assert_eq!(r.u64(), Ok(d));
        prop_assert_eq!(r.i64(), Ok(e));
        prop_assert_eq!(r.f64().map(f64::to_bits), Ok(f_bits));
        prop_assert_eq!(r.str(s.len()), Ok(s.clone()));
        prop_assert_eq!(r.str16(12), Ok(t.clone()));
        prop_assert_eq!(r.u32(), Ok(n as u32));
        prop_assert_eq!(r.take(raw.len()), Ok(&raw[..]));
        prop_assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn over_cap_writes_fail_finish(s in "[a-z]{1,40}", extra in 1usize..10) {
        let mut w = Writer::default();
        w.str(&s, s.len() - 1);
        prop_assert!(matches!(w.finish(), Err(CodecError::Oversize(_))));

        let mut w = Writer::default();
        w.str16(&s, s.len() - 1);
        prop_assert!(matches!(w.finish(), Err(CodecError::Oversize(_))));

        let mut w = Writer::default();
        w.count(s.len() + extra, s.len(), "element");
        prop_assert!(matches!(w.finish(), Err(CodecError::Oversize(_))));

        let mut w = Writer::default();
        prop_assert!(!w.check(s.len() + extra, s.len(), "field"));
        prop_assert!(matches!(w.finish(), Err(CodecError::Oversize(_))));
    }
}

#[test]
fn over_cap_string_is_refused_before_allocation() {
    // A 1 MiB string whose bytes are all present, read under a 16-byte cap.
    let mut w = Writer::default();
    w.str(&"x".repeat(1 << 20), usize::MAX);
    let bytes = w.finish().unwrap();
    let (got, allocated) = allocated_by(|| Reader::new(&bytes).str(16));
    assert_eq!(
        got,
        Err(CodecError::OverCap {
            len: 1 << 20,
            max: 16
        })
    );
    assert_eq!(allocated, 0, "refusal allocated {allocated} bytes");
    // A length prefix announcing 4 GiB with no body behind it.
    let hostile = u32::MAX.to_le_bytes();
    let (got, allocated) = allocated_by(|| Reader::new(&hostile).str(usize::MAX));
    assert_eq!(got, Err(CodecError::Truncated));
    assert_eq!(allocated, 0, "refusal allocated {allocated} bytes");
    let (got, allocated) = allocated_by(|| Reader::new(&hostile[..2]).str16(usize::MAX));
    assert_eq!(got, Err(CodecError::Truncated));
    assert_eq!(allocated, 0);
}

#[test]
fn first_oversize_sticks_and_names_the_field() {
    let mut w = Writer::default();
    w.str("abc", 2);
    w.count(9, 3, "row");
    match w.finish() {
        Err(CodecError::Oversize(msg)) => assert!(msg.contains("string"), "{msg}"),
        other => panic!("expected oversize, got {other:?}"),
    }
}

#[test]
fn non_utf8_strings_are_refused() {
    let bytes = [2, 0, 0, 0, 0xc3, 0x28];
    assert_eq!(Reader::new(&bytes).str(8), Err(CodecError::NotUtf8));
}
