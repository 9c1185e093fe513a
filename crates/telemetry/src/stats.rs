//! One declaration per metric: the [`stats!`](crate::stats) macro and the
//! read-back conversions it uses.

use std::time::Duration;

/// A stats field read back from a [`Counter`](crate::Counter).
pub trait CounterValue {
    /// The field value for a counter total of `count`.
    fn from_count(count: u64) -> Self;
}

impl CounterValue for u64 {
    fn from_count(count: u64) -> Self {
        count
    }
}

impl CounterValue for usize {
    fn from_count(count: u64) -> Self {
        count as usize
    }
}

/// A counter of nanoseconds.
impl CounterValue for Duration {
    fn from_count(count: u64) -> Self {
        Duration::from_nanos(count)
    }
}

/// A stats field kept in a [`Gauge`](crate::Gauge): how it is stored
/// ([`Gauge::store`](crate::Gauge::store)) and read back
/// ([`Gauge::load`](crate::Gauge::load)).
pub trait GaugeValue {
    /// The gauge's raw value for `self`.
    fn to_gauge(self) -> i64;
    /// The field value for a raw gauge value.
    fn from_gauge(raw: i64) -> Self;
}

impl GaugeValue for usize {
    fn to_gauge(self) -> i64 {
        i64::try_from(self).unwrap_or(i64::MAX)
    }

    fn from_gauge(raw: i64) -> Self {
        raw.max(0) as usize
    }
}

/// Stored shifted by one, so a gauge's initial 0 reads as `None` ("never
/// set"); `Some(v)` saturates at `i64::MAX - 1`.
impl GaugeValue for Option<u64> {
    fn to_gauge(self) -> i64 {
        match self {
            Some(value) => value.saturating_add(1).min(i64::MAX as u64) as i64,
            None => 0,
        }
    }

    fn from_gauge(raw: i64) -> Self {
        (raw > 0).then(|| raw as u64 - 1)
    }
}

/// Declares a layer's stats struct and the registry handles behind it from
/// one field list.
///
/// Each field of the stats struct is written once, with its docs,
/// visibility and type, then one of the following and a comma:
///
/// * `= counter` or `= gauge`: the field is read back from a
///   [`Counter`](crate::Counter) (through [`CounterValue`]) or a
///   [`Gauge`](crate::Gauge) (through [`GaugeValue`]) registered as
///   `<prefix>.<field>`; `= counter(name)` or `= gauge(name)` registers it
///   as `<prefix>.<name>`;
/// * nothing: a plain field with no handle, which the owner fills.
///
/// The optional brace block after the handles struct lists handle-only
/// metrics (`name: counter | gauge | histogram`) that have no stats field.
/// The macro generates the stats struct, the handles struct (one handle per
/// registry-backed field or handle-only entry, named after it, at the
/// handles struct's visibility), `Handles::register(&Telemetry)` and
/// `Handles::view(&self) -> Stats`.  Registration is idempotent, so
/// instances registered on one plane share (and aggregate into) the same
/// slots.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use sb_telemetry::Telemetry;
///
/// sb_telemetry::stats! {
///     /// Counters of a demo layer.
///     #[derive(Debug, Default, PartialEq)]
///     pub struct DemoStats {
///         /// Calls served.
///         pub calls: usize = counter,
///         /// Time spent waiting, kept in nanoseconds.
///         pub waited: Duration = counter(waited_ns),
///         /// The last hint seen, if any.
///         pub hint: Option<u64> = gauge,
///         /// Filled by the owner.
///         pub shards: Vec<usize>,
///     }
///     struct DemoHandles("demo") {
///         latency_ns: histogram,
///     }
/// }
///
/// let telemetry = Telemetry::new();
/// let handles = DemoHandles::register(&telemetry);
/// handles.calls.inc();
/// handles.waited.add(1_500);
/// handles.hint.store(Some(7));
/// handles.latency_ns.record(900);
/// assert_eq!(
///     handles.view(),
///     DemoStats {
///         calls: 1,
///         waited: Duration::from_nanos(1_500),
///         hint: Some(7),
///         shards: Vec::new(),
///     }
/// );
/// assert_eq!(telemetry.snapshot().counter("demo.waited_ns"), Some(1_500));
/// ```
#[macro_export]
macro_rules! stats {
    (
        $(#[$meta:meta])*
        $vis:vis struct $stats:ident { $($fields:tt)* }
        $(#[$hmeta:meta])*
        $hvis:vis struct $handles:ident($prefix:literal)
        $({ $($(#[$emeta:meta])* $extra:ident: $ekind:ident,)* })? $(;)?
    ) => {
        $crate::__stats! {
            @munch [
                [$(#[$meta])* $vis struct $stats]
                [$(#[$hmeta])* $hvis struct $handles($prefix)]
            ]
            { }
            { $($([$(#[$emeta])*] $extra $ekind ($extra))*)? }
            { }
            { }
            $($fields)*
        }
    };
}

/// The internals of [`stats!`]: `@munch` sorts the field list into the
/// stats struct's fields, the handles, the read-backs and the plain
/// fields; the other arms map a handle kind to its type, registration and
/// read-back.
#[doc(hidden)]
#[macro_export]
macro_rules! __stats {
    // A registry-backed field.
    (
        @munch $head:tt
        { $($all:tt)* } { $($handle:tt)* } { $($read:tt)* } { $($plain:tt)* }
        $(#[$fmeta:meta])*
        $fvis:vis $field:ident: $ty:ty = $kind:ident $(($name:ident))?,
        $($rest:tt)*
    ) => {
        $crate::__stats! {
            @munch $head
            { $($all)* $(#[$fmeta])* $fvis $field: $ty, }
            { $($handle)* [] $field $kind ($($name)? $field) }
            { $($read)* $field $kind }
            { $($plain)* }
            $($rest)*
        }
    };
    // A plain field.
    (
        @munch $head:tt
        { $($all:tt)* } { $($handle:tt)* } { $($read:tt)* } { $($plain:tt)* }
        $(#[$fmeta:meta])*
        $fvis:vis $field:ident: $ty:ty,
        $($rest:tt)*
    ) => {
        $crate::__stats! {
            @munch $head
            { $($all)* $(#[$fmeta])* $fvis $field: $ty, }
            { $($handle)* }
            { $($read)* }
            { $($plain)* $field }
            $($rest)*
        }
    };
    // Every field sorted: emit.
    (
        @munch [
            [$(#[$meta:meta])* $vis:vis struct $stats:ident]
            [$(#[$hmeta:meta])* $hvis:vis struct $handles:ident($prefix:literal)]
        ]
        { $($all:tt)* }
        { $([$(#[$hdoc:meta])*] $hfield:ident $hkind:ident ($name:ident $($_field:ident)?))* }
        { $($rfield:ident $rkind:ident)* }
        { $($pfield:ident)* }
    ) => {
        $(#[$meta])*
        $vis struct $stats { $($all)* }

        #[doc = concat!(
            "Registry handles backing [`", stringify!($stats), "`] (under `",
            $prefix, ".*`)."
        )]
        $(#[$hmeta])*
        #[derive(Debug, Clone)]
        $hvis struct $handles {
            $($(#[$hdoc])* $hvis $hfield: $crate::__stats!(@type $hkind),)*
        }

        impl $handles {
            /// Registers every handle in `telemetry`'s registry (idempotent:
            /// instances on one plane share the same slots).
            $hvis fn register(telemetry: &$crate::Telemetry) -> Self {
                let metrics = telemetry.metrics();
                $handles {
                    $($hfield: $crate::__stats!(
                        @register metrics $hkind concat!($prefix, ".", stringify!($name))
                    ),)*
                }
            }

            #[doc = concat!(
                "A point-in-time [`", stringify!($stats), "`] read back from the ",
                "handles; plain fields are left at their default."
            )]
            $hvis fn view(&self) -> $stats {
                $stats {
                    $($rfield: $crate::__stats!(@read $rkind self.$rfield),)*
                    $($pfield: ::core::default::Default::default(),)*
                }
            }
        }
    };
    (@type counter) => { $crate::Counter };
    (@type gauge) => { $crate::Gauge };
    (@type histogram) => { $crate::Histogram };
    (@register $metrics:ident counter $name:expr) => { $metrics.counter($name) };
    (@register $metrics:ident gauge $name:expr) => { $metrics.gauge($name) };
    (@register $metrics:ident histogram $name:expr) => { $metrics.histogram($name) };
    (@read counter $handle:expr) => { $crate::CounterValue::from_count($handle.get()) };
    (@read gauge $handle:expr) => { $handle.load() };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    crate::stats! {
        /// A stats view exercising every read-back.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct ProbeStats {
            /// A `usize` counter.
            pub calls: usize = counter,
            /// A `u64` counter under an overridden name.
            pub bytes: u64 = counter(bytes_total),
            /// Nanoseconds read back as a `Duration`.
            pub waited: Duration = counter(waited_ns),
            /// A `usize` gauge.
            pub depth: usize = gauge,
            /// The shifted optional gauge.
            pub hint: Option<u64> = gauge(next_hint),
            /// A plain field the owner fills.
            pub shards: Vec<usize>,
        }
        struct ProbeHandles("probe") {
            /// A handle-only histogram.
            latency_ns: histogram,
            /// A handle-only counter.
            shards: counter,
        }
    }

    fn names<T>(metrics: &[(String, T)]) -> Vec<&str> {
        metrics.iter().map(|(name, _)| name.as_str()).collect()
    }

    #[test]
    fn default_and_overridden_names_register() {
        let telemetry = Telemetry::new();
        let _handles = ProbeHandles::register(&telemetry);
        let snapshot = telemetry.snapshot();
        assert_eq!(
            names(&snapshot.counters),
            [
                "probe.bytes_total",
                "probe.calls",
                "probe.shards",
                "probe.waited_ns"
            ]
        );
        assert_eq!(names(&snapshot.gauges), ["probe.depth", "probe.next_hint"]);
        assert_eq!(names(&snapshot.histograms), ["probe.latency_ns"]);
    }

    #[test]
    fn view_reads_every_kind_back() {
        let handles = ProbeHandles::register(&Telemetry::new());
        assert_eq!(handles.view(), ProbeStats::default());

        handles.calls.add(3);
        handles.bytes.add(1 << 40);
        handles.waited.add(2_500);
        handles.depth.store(17usize);
        handles.hint.store(Some(0));
        handles.shards.add(9);
        handles.latency_ns.record(100);
        assert_eq!(
            handles.view(),
            ProbeStats {
                calls: 3,
                bytes: 1 << 40,
                waited: Duration::from_nanos(2_500),
                depth: 17,
                hint: Some(0),
                shards: Vec::new(),
            }
        );
    }

    #[test]
    fn shifted_gauge_distinguishes_unset_and_saturates() {
        let handles = ProbeHandles::register(&Telemetry::new());
        assert_eq!(handles.view().hint, None);
        assert_eq!(handles.hint.get(), 0);
        handles.hint.store(Some(41));
        assert_eq!(handles.hint.get(), 42);
        assert_eq!(handles.view().hint, Some(41));
        handles.hint.store(Some(u64::MAX));
        assert_eq!(handles.hint.get(), i64::MAX);
        assert_eq!(handles.view().hint, Some(i64::MAX as u64 - 1));
        handles.hint.store(None::<u64>);
        assert_eq!(handles.view().hint, None);
        // A negative raw value (never written by `store`) reads as unset.
        handles.hint.set(-5);
        assert_eq!(handles.view().hint, None);
    }

    #[test]
    fn one_plane_aggregates_and_private_planes_do_not() {
        let shared = Telemetry::new();
        let a = ProbeHandles::register(&shared);
        let b = ProbeHandles::register(&shared);
        a.calls.add(2);
        b.calls.add(5);
        assert_eq!(a.view().calls, 7);
        assert_eq!(b.view().calls, 7);
        assert_eq!(shared.snapshot().counter("probe.calls"), Some(7));

        let c = ProbeHandles::register(&Telemetry::new());
        let d = ProbeHandles::register(&Telemetry::new());
        c.calls.add(2);
        d.calls.add(5);
        assert_eq!(c.view().calls, 2);
        assert_eq!(d.view().calls, 5);
    }
}
