//! Time scales: Julian dates, civil time, sidereal time.
//!
//! The whole workspace represents instants as [`JulianDate`] (UTC). The
//! paper's measurement cadence — 15-second global-scheduler slots anchored at
//! :12/:27/:42/:57 past each minute, 20 ms probe intervals — only needs
//! millisecond-level resolution over a span of days, which a single `f64`
//! Julian date provides comfortably (≈ 40 µs resolution near J2000).

use crate::angles::wrap_tau;

/// Seconds per day.
pub const SECONDS_PER_DAY: f64 = 86_400.0;

/// Minutes per day.
pub const MINUTES_PER_DAY: f64 = 1_440.0;

/// Julian date of the J2000.0 epoch (2000-01-01 12:00:00 UTC).
pub const JD_J2000: f64 = 2_451_545.0;

/// An instant in time expressed as a UTC Julian date.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct JulianDate(pub f64);

impl JulianDate {
    /// The J2000.0 reference epoch.
    pub const J2000: JulianDate = JulianDate(JD_J2000);

    /// Builds a Julian date from a civil UTC timestamp.
    pub fn from_civil(civil: CivilTime) -> JulianDate {
        civil.to_julian()
    }

    /// Convenience constructor from date and time-of-day components.
    pub fn from_ymd_hms(
        year: i32,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: f64,
    ) -> JulianDate {
        CivilTime { year, month, day, hour, minute, second }.to_julian()
    }

    /// Converts back to civil UTC components.
    pub fn to_civil(self) -> CivilTime {
        // Fliegel & Van Flandern inverse algorithm.
        let jd = self.0 + 0.5;
        let z = jd.floor();
        let f = jd - z;
        let a = if z < 2_299_161.0 {
            z
        } else {
            let alpha = ((z - 1_867_216.25) / 36_524.25).floor();
            z + 1.0 + alpha - (alpha / 4.0).floor()
        };
        let b = a + 1524.0;
        let c = ((b - 122.1) / 365.25).floor();
        let d = (365.25 * c).floor();
        let e = ((b - d) / 30.6001).floor();

        let day_frac = b - d - (30.6001 * e).floor() + f;
        let day = day_frac.floor();
        let month = if e < 14.0 { e - 1.0 } else { e - 13.0 };
        let year = if month > 2.0 { c - 4716.0 } else { c - 4715.0 };

        let mut secs = (day_frac - day) * SECONDS_PER_DAY;
        // Clamp accumulated floating error away from 86400.
        if secs >= SECONDS_PER_DAY {
            secs = SECONDS_PER_DAY - 1e-6;
        }
        let hour = (secs / 3600.0).floor();
        secs -= hour * 3600.0;
        let minute = (secs / 60.0).floor();
        secs -= minute * 60.0;

        CivilTime {
            year: year as i32,
            month: month as u32,
            day: day as u32,
            hour: hour as u32,
            minute: minute as u32,
            second: secs,
        }
    }

    /// Returns this instant advanced by `secs` seconds.
    pub fn plus_seconds(self, secs: f64) -> JulianDate {
        JulianDate(self.0 + secs / SECONDS_PER_DAY)
    }

    /// Returns this instant advanced by `mins` minutes.
    pub fn plus_minutes(self, mins: f64) -> JulianDate {
        JulianDate(self.0 + mins / MINUTES_PER_DAY)
    }

    /// Returns this instant advanced by `days` days.
    pub fn plus_days(self, days: f64) -> JulianDate {
        JulianDate(self.0 + days)
    }

    /// Signed difference `self - other` in seconds.
    pub fn seconds_since(self, other: JulianDate) -> f64 {
        (self.0 - other.0) * SECONDS_PER_DAY
    }

    /// Signed difference `self - other` in minutes (the unit SGP4 uses).
    pub fn minutes_since(self, other: JulianDate) -> f64 {
        (self.0 - other.0) * MINUTES_PER_DAY
    }

    /// Julian centuries elapsed since J2000.0.
    pub fn centuries_since_j2000(self) -> f64 {
        (self.0 - JD_J2000) / 36_525.0
    }

    /// Greenwich Mean Sidereal Time in radians, `[0, 2π)`.
    ///
    /// IAU-1982 model (Vallado, *Fundamentals of Astrodynamics*, eq. 3-47).
    /// This is the rotation angle used to go from the TEME frame SGP4 emits
    /// to the Earth-fixed ECEF frame.
    pub fn gmst_rad(self) -> f64 {
        let t = self.centuries_since_j2000();
        let gmst_sec =
            67_310.548_41 + (876_600.0 * 3600.0 + 8_640_184.812_866) * t + 0.093_104 * t * t
                - 6.2e-6 * t * t * t;
        let gmst_deg = (gmst_sec % SECONDS_PER_DAY) / 240.0; // 86400 s / 360°
        wrap_tau(gmst_deg.to_radians())
    }

    /// Local mean solar hour at longitude `lon_deg` (east positive), `[0, 24)`.
    ///
    /// Used as the `local_hour` model feature in §6: one hour per 15° of
    /// longitude offset from UTC.
    pub fn local_solar_hour(self, lon_deg: f64) -> f64 {
        let c = self.to_civil();
        let utc_hours = c.hour as f64 + c.minute as f64 / 60.0 + c.second / 3600.0;
        let local = utc_hours + lon_deg / 15.0;
        local.rem_euclid(24.0)
    }
}

/// Civil (calendar) UTC timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CivilTime {
    /// Calendar year (Gregorian).
    pub year: i32,
    /// Month, 1–12.
    pub month: u32,
    /// Day of month, 1–31.
    pub day: u32,
    /// Hour, 0–23.
    pub hour: u32,
    /// Minute, 0–59.
    pub minute: u32,
    /// Second with fraction, `[0, 60)`.
    pub second: f64,
}

impl CivilTime {
    /// Converts to a Julian date (valid for Gregorian dates, year ≥ 1901).
    pub fn to_julian(self) -> JulianDate {
        // Vallado's JDAY algorithm.
        let y = self.year as f64;
        let m = self.month as f64;
        let d = self.day as f64;
        let jd = 367.0 * y - ((7.0 * (y + ((m + 9.0) / 12.0).floor())) / 4.0).floor()
            + (275.0 * m / 9.0).floor()
            + d
            + 1_721_013.5;
        let frac =
            (self.second + self.minute as f64 * 60.0 + self.hour as f64 * 3600.0) / SECONDS_PER_DAY;
        JulianDate(jd + frac)
    }

    /// Day of year (1-based), including the fractional part of the day.
    ///
    /// This is the epoch format TLE lines use ("day 264.51782528").
    pub fn day_of_year(self) -> f64 {
        const CUM_DAYS: [u32; 12] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334];
        let leap = (self.year % 4 == 0 && self.year % 100 != 0) || self.year % 400 == 0;
        let mut doy = CUM_DAYS[(self.month - 1) as usize] + self.day;
        if leap && self.month > 2 {
            doy += 1;
        }
        doy as f64
            + (self.hour as f64 * 3600.0 + self.minute as f64 * 60.0 + self.second)
                / SECONDS_PER_DAY
    }

    /// Builds a civil time from a year and a (fractional, 1-based) day of
    /// year — the inverse of [`CivilTime::day_of_year`], used when parsing
    /// TLE epochs.
    pub fn from_year_and_doy(year: i32, doy: f64) -> CivilTime {
        let jan1 = CivilTime { year, month: 1, day: 1, hour: 0, minute: 0, second: 0.0 };
        jan1.to_julian().plus_days(doy - 1.0).to_civil()
    }
}

impl std::fmt::Display for CivilTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:04}-{:02}-{:02} {:02}:{:02}:{:06.3}",
            self.year, self.month, self.day, self.hour, self.minute, self.second
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn j2000_round_trips() {
        let jd = JulianDate::from_ymd_hms(2000, 1, 1, 12, 0, 0.0);
        assert!((jd.0 - JD_J2000).abs() < 1e-9);
        let c = jd.to_civil();
        assert_eq!((c.year, c.month, c.day, c.hour, c.minute), (2000, 1, 1, 12, 0));
    }

    #[test]
    fn known_julian_date_vallado_example() {
        // Vallado example 3-4: 1996-10-26 14:20:00 UTC = JD 2450383.09722222.
        let jd = JulianDate::from_ymd_hms(1996, 10, 26, 14, 20, 0.0);
        assert!((jd.0 - 2_450_383.097_222_22).abs() < 1e-6);
    }

    #[test]
    fn civil_round_trip_over_many_instants() {
        for k in 0..500 {
            let jd = JulianDate(2_460_000.25 + k as f64 * 1.7381);
            let back = JulianDate::from_civil(jd.to_civil());
            assert!((back.0 - jd.0).abs() < 1e-8, "k={k}");
        }
    }

    #[test]
    fn gmst_known_value() {
        // Vallado example 3-5: 1992-08-20 12:14:00 UT1 → GMST 152.578788°.
        let jd = JulianDate::from_ymd_hms(1992, 8, 20, 12, 14, 0.0);
        let gmst_deg = jd.gmst_rad().to_degrees();
        assert!((gmst_deg - 152.578_788_10).abs() < 1e-4, "got {gmst_deg}");
    }

    #[test]
    fn plus_seconds_and_difference_agree() {
        let a = JulianDate::from_ymd_hms(2023, 3, 15, 0, 0, 0.0);
        let b = a.plus_seconds(15.0);
        // f64 Julian dates resolve ~40 µs near the present epoch.
        assert!((b.seconds_since(a) - 15.0).abs() < 1e-4);
        assert!((b.minutes_since(a) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn day_of_year_handles_leap_years() {
        let c = CivilTime { year: 2020, month: 3, day: 1, hour: 0, minute: 0, second: 0.0 };
        assert_eq!(c.day_of_year(), 61.0); // 31 + 29 + 1
        let c = CivilTime { year: 2021, month: 3, day: 1, hour: 0, minute: 0, second: 0.0 };
        assert_eq!(c.day_of_year(), 60.0);
        let c = CivilTime { year: 2000, month: 12, day: 31, hour: 0, minute: 0, second: 0.0 };
        assert_eq!(c.day_of_year(), 366.0); // 2000 was a leap year (divisible by 400)
    }

    #[test]
    fn doy_round_trip() {
        let c = CivilTime { year: 2023, month: 6, day: 27, hour: 18, minute: 30, second: 12.5 };
        let back = CivilTime::from_year_and_doy(2023, c.day_of_year());
        assert_eq!(
            (back.year, back.month, back.day, back.hour, back.minute),
            (2023, 6, 27, 18, 30)
        );
        assert!((back.second - 12.5).abs() < 1e-3);
    }

    #[test]
    fn local_solar_hour_offsets_by_longitude() {
        let jd = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        assert!((jd.local_solar_hour(0.0) - 12.0).abs() < 1e-6);
        assert!((jd.local_solar_hour(-90.0) - 6.0).abs() < 1e-6); // Iowa-ish
        assert!((jd.local_solar_hour(180.0) - 0.0).abs() < 1e-6);
    }
}
