//! Static vehicle parameters — the paper's `VehicleInfo` packet.

use crossroads_units::{Meters, MetersPerSecond, MetersPerSecondSquared};

/// Identifier a vehicle registers with the IM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VehicleId(pub u32);

impl std::fmt::Display for VehicleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "veh#{}", self.0)
    }
}

/// Physical capabilities and dimensions of a vehicle.
///
/// Mirrors the paper's `VehicleInfo` request field: maximum acceleration,
/// maximum deceleration, max speed, length, width, and base safety-buffer
/// size (lane/direction fields live in the intersection crate's
/// `Movement`).
///
/// Construct with [`VehicleSpec::builder`]; the two testbeds from the paper
/// are available as [`VehicleSpec::scale_model`] (1/10-scale TRAXXAS) and
/// [`VehicleSpec::full_scale`] (sedan used for the Matlab-style sweeps).
///
/// # Examples
///
/// ```
/// use crossroads_vehicle::VehicleSpec;
///
/// let traxxas = VehicleSpec::scale_model();
/// assert_eq!(traxxas.length.value(), 0.568);
/// assert_eq!(traxxas.v_max.value(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleSpec {
    /// Vehicle length (longitudinal), bumper to bumper.
    pub length: Meters,
    /// Vehicle width (lateral).
    pub width: Meters,
    /// Wheelbase `l` in the bicycle model of eq. 7.1.
    pub wheelbase: Meters,
    /// Maximum forward acceleration magnitude.
    pub a_max: MetersPerSecondSquared,
    /// Maximum braking deceleration magnitude (positive).
    pub d_max: MetersPerSecondSquared,
    /// Maximum speed.
    pub v_max: MetersPerSecond,
    /// Base longitudinal safety buffer (`E_long`): sensing + control +
    /// clock-sync position uncertainty, applied front *and* rear.
    pub safety_buffer: Meters,
}

impl VehicleSpec {
    /// Starts building a spec; all dimensions are required, limits have the
    /// scale-model defaults.
    #[must_use]
    pub fn builder() -> VehicleSpecBuilder {
        VehicleSpecBuilder::default()
    }

    /// The 1/10-scale TRAXXAS Slash platform of the paper's testbed:
    /// 0.568 m × 0.296 m, 3 m/s top speed, ±78 mm measured `E_long`.
    ///
    /// Acceleration limits are not stated explicitly in the thesis; 2 m/s²
    /// accel and 3 m/s² braking are consistent with the reported
    /// experiments (reach 3 m/s within the 3 m approach).
    #[must_use]
    pub fn scale_model() -> Self {
        VehicleSpec {
            length: Meters::new(0.568),
            width: Meters::new(0.296),
            wheelbase: Meters::new(0.335),
            a_max: MetersPerSecondSquared::new(2.0),
            d_max: MetersPerSecondSquared::new(3.0),
            v_max: MetersPerSecond::new(3.0),
            safety_buffer: Meters::from_millis(78.0),
        }
    }

    /// A full-scale sedan for the Matlab-style scalability simulations:
    /// 4.5 m × 1.8 m, 15 m/s approach top speed, 0.5 m buffer.
    #[must_use]
    pub fn full_scale() -> Self {
        VehicleSpec {
            length: Meters::new(4.5),
            width: Meters::new(1.8),
            wheelbase: Meters::new(2.7),
            a_max: MetersPerSecondSquared::new(3.0),
            d_max: MetersPerSecondSquared::new(4.5),
            v_max: MetersPerSecond::new(15.0),
            safety_buffer: Meters::new(0.5),
        }
    }

    /// Validates physical consistency.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field if any dimension or
    /// limit is non-positive/non-finite, or the buffer is negative.
    pub fn validate(&self) -> Result<(), String> {
        let positive = [
            ("length", self.length.value()),
            ("width", self.width.value()),
            ("wheelbase", self.wheelbase.value()),
            ("a_max", self.a_max.value()),
            ("d_max", self.d_max.value()),
            ("v_max", self.v_max.value()),
        ];
        for (name, v) in positive {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        let b = self.safety_buffer.value();
        if !(b.is_finite() && b >= 0.0) {
            return Err(format!("safety_buffer must be non-negative, got {b}"));
        }
        Ok(())
    }
}

/// Builder for [`VehicleSpec`]; starts from the scale-model values.
#[derive(Debug, Clone)]
pub struct VehicleSpecBuilder {
    spec: VehicleSpec,
}

impl Default for VehicleSpecBuilder {
    fn default() -> Self {
        VehicleSpecBuilder {
            spec: VehicleSpec::scale_model(),
        }
    }
}

impl VehicleSpecBuilder {
    /// Sets bumper-to-bumper length.
    #[must_use]
    pub fn length(mut self, v: Meters) -> Self {
        self.spec.length = v;
        self
    }

    /// Sets body width.
    #[must_use]
    pub fn width(mut self, v: Meters) -> Self {
        self.spec.width = v;
        self
    }

    /// Sets the bicycle-model wheelbase.
    #[must_use]
    pub fn wheelbase(mut self, v: Meters) -> Self {
        self.spec.wheelbase = v;
        self
    }

    /// Sets maximum forward acceleration.
    #[must_use]
    pub fn a_max(mut self, v: MetersPerSecondSquared) -> Self {
        self.spec.a_max = v;
        self
    }

    /// Sets maximum braking magnitude.
    #[must_use]
    pub fn d_max(mut self, v: MetersPerSecondSquared) -> Self {
        self.spec.d_max = v;
        self
    }

    /// Sets maximum speed.
    #[must_use]
    pub fn v_max(mut self, v: MetersPerSecond) -> Self {
        self.spec.v_max = v;
        self
    }

    /// Sets the base longitudinal safety buffer.
    #[must_use]
    pub fn safety_buffer(mut self, v: Meters) -> Self {
        self.spec.safety_buffer = v;
        self
    }

    /// Finalizes the spec.
    ///
    /// # Errors
    ///
    /// Returns the message from [`VehicleSpec::validate`] on inconsistent
    /// parameters.
    pub fn build(self) -> Result<VehicleSpec, String> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_model_matches_paper_constants() {
        let s = VehicleSpec::scale_model();
        assert_eq!(s.length, Meters::new(0.568));
        assert_eq!(s.width, Meters::new(0.296));
        assert_eq!(s.v_max, MetersPerSecond::new(3.0));
        assert_eq!(s.safety_buffer, Meters::from_millis(78.0));
        s.validate().unwrap();
    }

    #[test]
    fn full_scale_is_valid() {
        VehicleSpec::full_scale().validate().unwrap();
    }

    #[test]
    fn builder_overrides_fields() {
        let s = VehicleSpec::builder()
            .length(Meters::new(1.0))
            .v_max(MetersPerSecond::new(5.0))
            .build()
            .unwrap();
        assert_eq!(s.length, Meters::new(1.0));
        assert_eq!(s.v_max, MetersPerSecond::new(5.0));
        // Unset fields keep scale-model defaults.
        assert_eq!(s.width, Meters::new(0.296));
    }

    #[test]
    fn builder_rejects_nonpositive() {
        let err = VehicleSpec::builder()
            .length(Meters::ZERO)
            .build()
            .unwrap_err();
        assert!(err.contains("length"));
        let err = VehicleSpec::builder()
            .v_max(MetersPerSecond::new(-1.0))
            .build()
            .unwrap_err();
        assert!(err.contains("v_max"));
    }

    #[test]
    fn builder_rejects_negative_buffer_but_allows_zero() {
        assert!(VehicleSpec::builder()
            .safety_buffer(Meters::new(-0.01))
            .build()
            .is_err());
        assert!(VehicleSpec::builder()
            .safety_buffer(Meters::ZERO)
            .build()
            .is_ok());
    }

    #[test]
    fn vehicle_id_display() {
        assert_eq!(VehicleId(7).to_string(), "veh#7");
    }
}
