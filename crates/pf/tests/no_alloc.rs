//! The SIR main loop allocates nothing per iteration.
//!
//! A counting global allocator measures whole `ParticlePreprocessor::process`
//! passes over one object. Each pair of passes differs only in how many
//! seconds the filter replays (5 or 50), so equal counts mean the extra
//! iterations allocated nothing. Every pass ends with a reading from a
//! reader of 1 cm range far from the cloud: the sensor reset it forces
//! leaves the same small final cloud behind, so snapping and the index
//! update allocate the same in every pass.
//!
//! This binary holds one test, because `cargo test` runs the tests of a
//! binary on parallel threads and the counter is global.

#![allow(unsafe_code)] // a counting `GlobalAlloc` needs `unsafe impl`

use ripq_floorplan::{office_building, OfficeParams};
use ripq_graph::{build_walking_graph, AnchorObjectIndex, AnchorSet, GraphPos, WalkingGraph};
use ripq_obs::Recorder;
use ripq_pf::{FilterTables, ParticlePreprocessor, PreprocessorConfig, SupervisionOptions};
use ripq_rfid::{deploy_uniform, DataCollector, ObjectId, Reader, ReaderId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const O: ObjectId = ObjectId::new(0);

/// What fills the replayed seconds between the first reading and the
/// final reset.
#[derive(Debug, Clone, Copy)]
enum Middle {
    /// Silence: the filter coasts on negative evidence.
    Silent,
    /// The first reader keeps detecting: particles drifting out of its
    /// range lose weight until the set degenerates and is resampled.
    Resample,
    /// The 1 cm reader keeps detecting: no particle can stay inside it
    /// for a second, so every reading reseeds the cloud.
    Reset,
}

struct World {
    graph: WalkingGraph,
    anchors: AnchorSet,
    readers: Vec<Reader>,
    tables: FilterTables,
}

impl World {
    /// The office with its default deployment plus one 1 cm reader,
    /// midway between two anchors of a hallway edge far from reader 0.
    fn new() -> World {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let mut readers = deploy_uniform(&plan, &graph, 19, 2.0);
        let home = readers[0].position();
        let edge = graph
            .edges()
            .iter()
            .find(|e| {
                e.kind.is_hallway()
                    && e.length() > 6.0
                    && e.point_at(e.length() / 2.0).distance(home) > 15.0
            })
            .unwrap();
        let on_edge = anchors.on_edge(edge.id);
        let mid = on_edge.len() / 2;
        let offset = (anchors.anchor(on_edge[mid - 1]).pos.offset
            + anchors.anchor(on_edge[mid]).pos.offset)
            / 2.0;
        let pos = GraphPos::new(edge.id, offset);
        let id = ReaderId::new(readers.len() as u32);
        readers.push(Reader::new(id, graph.point_of(pos), pos, 0.01));
        let tables = FilterTables::new(&graph, &readers);
        World {
            graph,
            anchors,
            readers,
            tables,
        }
    }

    fn tiny(&self) -> ReaderId {
        self.readers.last().unwrap().id()
    }

    /// Reader 0 detects at second 0, `middle` fills seconds 1..=k, and the
    /// 1 cm reader detects at second k + 1.
    fn collector(&self, middle: Middle, k: u64) -> DataCollector {
        let mut c = DataCollector::new();
        c.ingest_second(0, &[(O, self.readers[0].id())]);
        for s in 1..=k {
            match middle {
                Middle::Silent => c.ingest_second(s, &[]),
                Middle::Resample => c.ingest_second(s, &[(O, self.readers[0].id())]),
                Middle::Reset => c.ingest_second(s, &[(O, self.tiny())]),
            }
        }
        c.ingest_second(k + 1, &[(O, self.tiny())]);
        c
    }

    /// One pass over the object at second k + 1; returns the allocations
    /// `process` made.
    fn allocations(&self, pre: &ParticlePreprocessor<'_>, middle: Middle, k: u64) -> usize {
        let collector = self.collector(middle, k);
        let options = SupervisionOptions::default();
        let mut index = AnchorObjectIndex::new();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        pre.process(3, &collector, &[O], k + 1, None, None, &options, &mut index);
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert!((index.total_probability(&O) - 1.0).abs() < 1e-9);
        after - before
    }
}

#[test]
fn sir_iterations_allocate_nothing() {
    let w = World::new();
    let config = PreprocessorConfig::default();
    let pre = ParticlePreprocessor::new(&w.graph, &w.anchors, &w.readers, &w.tables, config);
    let recorder = Recorder::enabled();
    let observed = ParticlePreprocessor::new(&w.graph, &w.anchors, &w.readers, &w.tables, config)
        .with_recorder(&recorder);
    let counter = |name: &str| recorder.snapshot().counters.get(name).copied().unwrap_or(0);

    for middle in [Middle::Silent, Middle::Resample, Middle::Reset] {
        let short = w.allocations(&pre, middle, 5);
        let long = w.allocations(&pre, middle, 50);
        assert_eq!(short, long, "{middle:?}: 5 vs 50 replayed seconds");

        // The scenario does what it is named for, and more so when longer.
        let (resamples, resets) = (counter("pf.resamples"), counter("pf.sensor_resets"));
        w.allocations(&observed, middle, 5);
        let short_counts = (
            counter("pf.resamples") - resamples,
            counter("pf.sensor_resets") - resets,
        );
        let (resamples, resets) = (counter("pf.resamples"), counter("pf.sensor_resets"));
        w.allocations(&observed, middle, 50);
        let long_counts = (
            counter("pf.resamples") - resamples,
            counter("pf.sensor_resets") - resets,
        );
        match middle {
            Middle::Silent => assert_eq!(long_counts.1, 1, "only the final reset"),
            Middle::Resample => assert!(long_counts.0 > short_counts.0, "{middle:?}"),
            Middle::Reset => assert_eq!((short_counts.1, long_counts.1), (6, 51)),
        }
    }
}
