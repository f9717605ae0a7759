//! Incremental JSONL trace sink: a [`Tracer`] that writes each record
//! to an underlying writer *as it happens*, rather than buffering a
//! ring like [`Recorder`](crate::recorder::Recorder) does.
//!
//! This is the streaming half of the observability story: a
//! long-running exploration service can attach a [`JsonlSink`] wrapped
//! around a chunked HTTP response body and narrate a run to a client
//! live. Records are rendered by the same function as
//! [`TraceRecord::to_json`](crate::recorder::TraceRecord::to_json), so
//! everything that consumes recorder exports (the `obsv` readers, the
//! `trace_lens` example) ingests sink output unchanged.
//!
//! Writes happen inside tracer hooks, which must not panic mid-run; an
//! IO error therefore *latches*: the sink goes quiet, remembers the
//! error, and fires an optional error hook exactly once — a server uses
//! that hook to cancel the run whose audience hung up.

use crate::manifest::RunManifest;
use crate::recorder::{render_trace_line, TraceKind};
use crate::tracer::Tracer;
use std::io::Write;
use std::sync::Mutex;

struct SinkState<W: Write + Send> {
    writer: W,
    /// The line being written, reused from record to record.
    line: String,
    records: u64,
    error: Option<std::io::Error>,
    on_error: Option<Box<dyn FnMut() + Send>>,
}

/// A [`Tracer`] that appends one JSONL line per hook call to a writer.
///
/// Every line, its `\n` included, reaches the writer in one `write_all`
/// and is flushed immediately — the point of a streaming sink is that
/// the consumer sees records live, not after the run, and a chunked
/// HTTP body then carries each record as one chunk.
pub struct JsonlSink<W: Write + Send> {
    state: Mutex<SinkState<W>>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink writing to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            state: Mutex::new(SinkState {
                writer,
                line: String::new(),
                records: 0,
                error: None,
                on_error: None,
            }),
        }
    }

    /// Installs a hook invoked exactly once, on the first write error —
    /// typically "cancel the traced run, its client is gone".
    pub fn on_error(self, hook: impl FnMut() + Send + 'static) -> Self {
        self.state.lock().expect("sink lock").on_error = Some(Box::new(hook));
        self
    }

    /// Lines successfully written so far (excluding the manifest line).
    pub fn records_written(&self) -> u64 {
        self.state.lock().expect("sink lock").records
    }

    /// Whether a write has failed; a failed sink drops further records.
    pub fn has_failed(&self) -> bool {
        self.state.lock().expect("sink lock").error.is_some()
    }

    /// Writes the closing manifest line and returns the total record
    /// count, or the first error this sink hit (including one latched
    /// earlier during hook calls).
    pub fn finish(self, manifest: &RunManifest) -> std::io::Result<u64> {
        let records = self.records_written();
        self.finish_into(manifest).map(|_| records)
    }

    /// Like [`JsonlSink::finish`], but hands the writer back so the
    /// caller can append trailing content (e.g. a streaming server's
    /// closing summary) after the manifest line.
    pub fn finish_into(self, manifest: &RunManifest) -> std::io::Result<W> {
        let mut st = self.state.into_inner().expect("sink lock");
        if let Some(e) = st.error {
            return Err(e);
        }
        let mut line = manifest.to_json();
        line.push('\n');
        st.writer.write_all(line.as_bytes())?;
        st.writer.flush()?;
        Ok(st.writer)
    }

    /// Emits one pre-rendered JSON line through the same latched-error
    /// machinery as the tracer hooks. This is how a streaming server
    /// interleaves its own records (e.g. a `server_span` describing the
    /// request that carried this run) with the simulation's trace lines
    /// without racing the sink's writer.
    pub fn emit_raw(&self, json_line: &str) {
        self.emit(|line| line.push_str(json_line));
    }

    /// Renders one line with `render` into the reused buffer, appends
    /// its `\n`, and writes and flushes it.
    fn emit(&self, render: impl FnOnce(&mut String)) {
        let mut guard = self.state.lock().expect("sink lock");
        let st = &mut *guard;
        if st.error.is_some() {
            return;
        }
        st.line.clear();
        render(&mut st.line);
        st.line.push('\n');
        let attempt = st
            .writer
            .write_all(st.line.as_bytes())
            .and_then(|()| st.writer.flush());
        match attempt {
            Ok(()) => st.records += 1,
            Err(e) => {
                st.error = Some(e);
                if let Some(hook) = st.on_error.as_mut() {
                    hook();
                }
            }
        }
    }
}

impl<W: Write + Send> Tracer for JsonlSink<W> {
    fn on_schedule(&self, now: f64, fire_at: f64, label: &str, id: u64, parent: Option<u64>) {
        let kind = TraceKind::Schedule {
            fire_at,
            id,
            parent,
        };
        self.emit(|line| render_trace_line(line, now, label, &kind));
    }

    fn on_dispatch(&self, now: f64, label: &str, queue_len: usize, id: u64, parent: Option<u64>) {
        let kind = TraceKind::Dispatch {
            queue_len,
            id,
            parent,
        };
        self.emit(|line| render_trace_line(line, now, label, &kind));
    }

    fn on_span_enter(&self, now: f64, name: &str) {
        self.emit(|line| render_trace_line(line, now, name, &TraceKind::SpanEnter));
    }

    fn on_span_exit(&self, now: f64, name: &str) {
        self.emit(|line| render_trace_line(line, now, name, &TraceKind::SpanExit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A writer that can be shared with the test and made to fail.
    #[derive(Clone, Default)]
    struct SharedBuf {
        data: Arc<Mutex<Vec<u8>>>,
        fail: Arc<Mutex<bool>>,
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if *self.fail.lock().unwrap() {
                return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"));
            }
            self.data.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn manifest(model: &str) -> RunManifest {
        RunManifest {
            schema: crate::manifest::MANIFEST_SCHEMA,
            model: model.to_string(),
            seed: 7,
            config_digest: 0,
            events_scheduled: 2,
            events_dispatched: 2,
            sim_time: 2.0,
            trace_records: 1,
            trace_dropped: 0,
            wall_ms: 0.0,
        }
    }

    fn drive(tracer: &dyn Tracer) {
        tracer.on_schedule(0.0, 1.5, "arrive", 0, None);
        tracer.on_schedule(0.5, 2.0, "depart", 1, Some(0));
        tracer.on_dispatch(1.5, "arrive", 1, 0, None);
        tracer.on_span_enter(1.5, "service");
        tracer.on_span_exit(1.8, "service");
        tracer.on_dispatch(2.0, "depart", 0, 1, Some(0));
    }

    #[test]
    fn lines_match_recorder_export_byte_for_byte() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(buf.clone());
        drive(&sink);
        assert_eq!(sink.records_written(), 6);

        let recorder = Recorder::new();
        drive(&recorder);
        let recorded: Vec<String> = recorder.trace().iter().map(|r| r.to_json()).collect();

        let streamed = String::from_utf8(buf.data.lock().unwrap().clone()).unwrap();
        let streamed: Vec<&str> = streamed.lines().collect();
        assert_eq!(streamed, recorded, "sink and recorder disagree on shape");
    }

    /// A writer that counts its `write` and `flush` calls.
    #[derive(Clone, Default)]
    struct CountingWriter {
        writes: Arc<AtomicUsize>,
        flushes: Arc<AtomicUsize>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.fetch_add(1, Ordering::SeqCst);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    #[test]
    fn every_record_is_one_write_then_a_flush() {
        let counter = CountingWriter::default();
        let sink = JsonlSink::new(counter.clone());
        drive(&sink);
        sink.emit_raw("{\"kind\":\"server_span\"}");
        assert_eq!(sink.records_written(), 7);
        assert_eq!(counter.writes.load(Ordering::SeqCst), 7);
        assert_eq!(counter.flushes.load(Ordering::SeqCst), 7);
        sink.finish(&manifest("counted")).expect("finish");
        assert_eq!(counter.writes.load(Ordering::SeqCst), 8, "the manifest too");
        assert_eq!(counter.flushes.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn finish_appends_manifest_line() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(buf.clone());
        sink.on_dispatch(1.0, "e", 0, 0, None);
        let n = sink.finish(&manifest("sink-test")).expect("finish");
        assert_eq!(n, 1);
        let text = String::from_utf8(buf.data.lock().unwrap().clone()).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"kind\":\"manifest\""), "got: {last}");
        assert!(last.contains("sink-test"));
    }

    #[test]
    fn write_errors_latch_and_fire_the_hook_once() {
        let buf = SharedBuf::default();
        let fired = Arc::new(AtomicUsize::new(0));
        let hook_fired = fired.clone();
        let sink = JsonlSink::new(buf.clone()).on_error(move || {
            hook_fired.fetch_add(1, Ordering::SeqCst);
        });

        sink.on_dispatch(1.0, "ok", 0, 0, None);
        *buf.fail.lock().unwrap() = true;
        sink.on_dispatch(2.0, "lost", 0, 1, None);
        sink.on_dispatch(3.0, "lost", 0, 2, None);

        assert!(sink.has_failed());
        assert_eq!(fired.load(Ordering::SeqCst), 1, "hook fires exactly once");
        assert_eq!(sink.records_written(), 1);
        let err = sink.finish(&manifest("failed")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }
}
