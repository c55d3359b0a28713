//! A [`MetadataStore`] decorator that times and counts every trait
//! method of the store it wraps, as `store.<method>` spans.
//!
//! It sits between `Sdm` and the real store stack (`CachedStore` over
//! `SqlStore` over the `sdm-metadb` engine and its WAL), so a span's
//! duration is the measured cost of the whole metadata layer for that
//! call. Spans nest under the session span open on the calling thread.

use std::sync::Arc;

use sdm_core::{HistoryBlock, MetadataStore, RunRecord, SharedStore};
use sdm_metadb::stmt::Stmt;
use sdm_metadb::{Database, DbResult, ResultSet, Value};

use crate::trace::Tracer;

pub struct TimedStore {
    inner: SharedStore,
    tracer: Arc<Tracer>,
}

impl TimedStore {
    pub fn shared(inner: SharedStore, tracer: Arc<Tracer>) -> SharedStore {
        Arc::new(TimedStore { inner, tracer })
    }
}

impl MetadataStore for TimedStore {
    fn ensure_schema(&self) -> DbResult<()> {
        self.tracer
            .span("store.ensure_schema", || self.inner.ensure_schema())
    }

    fn allocate_runid(&self, application: &str) -> DbResult<i64> {
        self.tracer.span("store.allocate_runid", || {
            self.inner.allocate_runid(application)
        })
    }

    fn latest_runid_for_app(&self, application: &str) -> DbResult<Option<i64>> {
        self.tracer.span("store.latest_runid_for_app", || {
            self.inner.latest_runid_for_app(application)
        })
    }

    fn run_exists(&self, runid: i64) -> DbResult<bool> {
        self.tracer
            .span("store.run_exists", || self.inner.run_exists(runid))
    }

    fn record_run(&self, rec: &RunRecord) -> DbResult<()> {
        self.tracer
            .span("store.record_run", || self.inner.record_run(rec))
    }

    fn record_access_pattern(
        &self,
        runid: i64,
        dataset: &str,
        data_type: &str,
        storage_order: &str,
        access_pattern: &str,
        global_size: i64,
    ) -> DbResult<()> {
        self.tracer.span("store.record_access_pattern", || {
            self.inner.record_access_pattern(
                runid,
                dataset,
                data_type,
                storage_order,
                access_pattern,
                global_size,
            )
        })
    }

    fn record_execution(
        &self,
        runid: i64,
        dataset: &str,
        timestep: i64,
        file_offset: i64,
        file_name: &str,
    ) -> DbResult<()> {
        self.tracer.span("store.record_execution", || {
            self.inner
                .record_execution(runid, dataset, timestep, file_offset, file_name)
        })
    }

    fn lookup_execution(
        &self,
        runid: i64,
        dataset: &str,
        timestep: i64,
    ) -> DbResult<Option<(i64, String)>> {
        self.tracer.span("store.lookup_execution", || {
            self.inner.lookup_execution(runid, dataset, timestep)
        })
    }

    fn execution_history(&self, application: &str) -> DbResult<Vec<(i64, i64, i64, String)>> {
        self.tracer.span("store.execution_history", || {
            self.inner.execution_history(application)
        })
    }

    fn record_import(
        &self,
        runid: i64,
        imported_name: &str,
        file_name: &str,
        data_type: &str,
        storage_order: &str,
        file_content: &str,
    ) -> DbResult<()> {
        self.tracer.span("store.record_import", || {
            self.inner.record_import(
                runid,
                imported_name,
                file_name,
                data_type,
                storage_order,
                file_content,
            )
        })
    }

    fn record_index_registry(
        &self,
        problem_size: i64,
        num_procs: i64,
        dimension: i64,
        file_name: &str,
    ) -> DbResult<()> {
        self.tracer.span("store.record_index_registry", || {
            self.inner
                .record_index_registry(problem_size, num_procs, dimension, file_name)
        })
    }

    fn lookup_index_registry(&self, problem_size: i64, num_procs: i64) -> DbResult<Option<String>> {
        self.tracer.span("store.lookup_index_registry", || {
            self.inner.lookup_index_registry(problem_size, num_procs)
        })
    }

    fn record_history_block(
        &self,
        problem_size: i64,
        num_procs: i64,
        block: &HistoryBlock,
    ) -> DbResult<()> {
        self.tracer.span("store.record_history_block", || {
            self.inner
                .record_history_block(problem_size, num_procs, block)
        })
    }

    fn lookup_history_block(
        &self,
        problem_size: i64,
        num_procs: i64,
        rank: i64,
    ) -> DbResult<Option<HistoryBlock>> {
        self.tracer.span("store.lookup_history_block", || {
            self.inner
                .lookup_history_block(problem_size, num_procs, rank)
        })
    }

    fn delete_index_registry(&self, problem_size: i64, num_procs: i64) -> DbResult<()> {
        self.tracer.span("store.delete_index_registry", || {
            self.inner.delete_index_registry(problem_size, num_procs)
        })
    }

    fn run(&self, stmt: &Stmt, params: &[Value]) -> DbResult<ResultSet> {
        self.tracer
            .span("store.run", || self.inner.run(stmt, params))
    }

    #[allow(deprecated)]
    fn exec(&self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        self.tracer
            .span("store.exec", || self.inner.exec(sql, params))
    }

    fn flush(&self) -> DbResult<()> {
        self.tracer.span("store.flush", || self.inner.flush())
    }

    fn checkpoint(&self) -> DbResult<u64> {
        self.tracer
            .span("store.checkpoint", || self.inner.checkpoint())
    }

    fn database(&self) -> &Arc<Database> {
        self.tracer.span("store.database", || self.inner.database())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_core::CachedStore;

    #[test]
    fn every_call_becomes_one_store_span() {
        let tracer = Arc::new(Tracer::default());
        let db = Arc::new(Database::new());
        let store = TimedStore::shared(CachedStore::shared(&db), Arc::clone(&tracer));
        store.ensure_schema().unwrap();
        let runid = store.allocate_runid("rt").unwrap();
        store.record_execution(runid, "p", 0, 64, "f").unwrap();
        store.flush().unwrap();
        assert_eq!(
            store.lookup_execution(runid, "p", 0).unwrap(),
            Some((64, "f".to_string()))
        );
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "store.ensure_schema",
                "store.allocate_runid",
                "store.record_execution",
                "store.flush",
                "store.lookup_execution"
            ]
        );
    }
}
