//! Self time is a span's duration minus the part its children cover,
//! counting overlapping children once and ignoring what sticks out.

use std::time::Instant;

use perfbench::trace::{covered, self_time, self_times, Recorder, Span, SpanName};

#[test]
fn no_children_leaves_the_whole_span() {
    assert_eq!(self_time(10, 50, &[]), 40);
}

#[test]
fn disjoint_children_are_summed() {
    assert_eq!(covered(0, 100, &[(10, 20), (30, 45), (90, 100)]), 35);
    assert_eq!(self_time(0, 100, &[(10, 20), (30, 45), (90, 100)]), 65);
}

#[test]
fn overlapping_children_count_once() {
    // [10, 40) ∪ [30, 60) ∪ [55, 70) = [10, 70).
    assert_eq!(self_time(0, 100, &[(30, 60), (10, 40), (55, 70)]), 40);
}

#[test]
fn a_child_inside_another_adds_nothing() {
    assert_eq!(self_time(0, 100, &[(10, 80), (20, 30), (40, 70)]), 30);
}

#[test]
fn children_are_clipped_to_the_parent() {
    // Starts before, ends after, and one wholly outside.
    assert_eq!(self_time(50, 150, &[(0, 60), (140, 400), (200, 300)]), 80);
    assert_eq!(self_time(50, 150, &[(0, 400)]), 0);
}

#[test]
fn empty_and_reversed_children_are_ignored() {
    assert_eq!(self_time(0, 10, &[(5, 5), (8, 3)]), 10);
}

fn span(name: SpanName, parent: Option<u32>, start: u64, end: u64) -> Span {
    Span {
        name,
        parent,
        request: 1,
        start,
        end,
    }
}

#[test]
fn a_tree_only_subtracts_direct_children() {
    // check [0, 100) ⊃ decompose [10, 60) ⊃ sha256 [20, 30), probe [30, 35);
    // check ⊃ parse [0, 10) and shape [70, 80).
    let spans = [
        span(SpanName::Check, None, 0, 100),
        span(SpanName::Parse, Some(0), 0, 10),
        span(SpanName::Decompose, Some(0), 10, 60),
        span(SpanName::Sha256, Some(2), 20, 30),
        span(SpanName::Probe, Some(2), 30, 35),
        span(SpanName::Shape, Some(0), 70, 80),
    ];
    assert_eq!(self_times(&spans), vec![30, 10, 35, 10, 5, 10]);
}

#[test]
fn the_recorder_nests_spans_it_times() {
    let mut rec = Recorder::new(Instant::now(), 8);
    let request = rec.next_request();
    let root = rec.open(SpanName::Check, None);
    let value = rec.time(SpanName::Parse, Some(root), || 7);
    rec.close(root);
    assert_eq!(value, 7);
    let spans = rec.spans();
    assert_eq!(spans.len(), 2);
    assert!(spans.iter().all(|s| s.request == request));
    assert_eq!(spans[1].parent, Some(root));
    assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    let selfs = self_times(spans);
    assert_eq!(selfs[0], spans[0].duration() - spans[1].duration());
}
