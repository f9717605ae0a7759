//@ path: crates/autoscaling/src/capsule_coverage_ok_fixture.rs
// ui fixture (negative): a symmetric capture/resume pair is clean.

impl Evolvable for RoundTripPolicy {
    fn capsule_kind(&self) -> &'static str {
        "fixture.roundtrip"
    }

    fn capture(&self, _now: f64) -> Capsule {
        let mut c = Capsule::new(self.capsule_kind(), 1)
            .with_f64("window", self.window)
            .with_u64("ticks", self.ticks);
        c.push("history", Value::F64Table(self.history.clone()));
        c
    }

    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())?;
        self.window = capsule.f64_field("window")?;
        self.ticks = capsule.u64_field("ticks")?;
        self.history = capsule.f64_table_field("history")?.to_vec();
        Ok(())
    }
}
