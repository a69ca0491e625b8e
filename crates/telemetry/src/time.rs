//! Simulation calendar.
//!
//! The paper's data spans 2.5 years starting in 2012 (Figs. 3 and 4 show
//! 2012 and 2013 series). We anchor the simulation epoch at
//! **2012-01-01 00:00**, which was a Sunday, and measure time in whole hours.

use std::fmt;

use serde::Serialize;

/// Days in each month of a non-leap year.
const MONTH_DAYS: [u16; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// A point in simulated time: whole hours since 2012-01-01 00:00 (a Sunday).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(pub u64);

/// Day of week, `Sun` through `Sat` (the paper's Fig. 3 x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DayOfWeek {
    /// Sunday.
    Sun,
    /// Monday.
    Mon,
    /// Tuesday.
    Tue,
    /// Wednesday.
    Wed,
    /// Thursday.
    Thu,
    /// Friday.
    Fri,
    /// Saturday.
    Sat,
}

impl DayOfWeek {
    /// All days, Sunday first (epoch alignment).
    pub const ALL: [DayOfWeek; 7] = [
        DayOfWeek::Sun,
        DayOfWeek::Mon,
        DayOfWeek::Tue,
        DayOfWeek::Wed,
        DayOfWeek::Thu,
        DayOfWeek::Fri,
        DayOfWeek::Sat,
    ];

    /// Whether this is a weekday (Mon–Fri).
    pub fn is_weekday(&self) -> bool {
        !matches!(self, DayOfWeek::Sun | DayOfWeek::Sat)
    }

    /// 0-based index, Sunday = 0.
    pub fn index(&self) -> usize {
        *self as usize
    }
}

impl fmt::Display for DayOfWeek {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DayOfWeek::Sun => "Sun",
            DayOfWeek::Mon => "Mon",
            DayOfWeek::Tue => "Tue",
            DayOfWeek::Wed => "Wed",
            DayOfWeek::Thu => "Thu",
            DayOfWeek::Fri => "Fri",
            DayOfWeek::Sat => "Sat",
        };
        f.write_str(s)
    }
}

fn is_leap(year: u16) -> bool {
    (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400)
}

fn days_in_year(year: u16) -> u64 {
    if is_leap(year) {
        366
    } else {
        365
    }
}

fn days_in_month(year: u16, month0: usize) -> u64 {
    if month0 == 1 && is_leap(year) {
        29
    } else {
        MONTH_DAYS[month0] as u64
    }
}

/// A calendar date decomposed from a [`SimTime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CalendarDate {
    /// Calendar year, e.g. 2012.
    pub year: u16,
    /// Month 1–12.
    pub month: u8,
    /// Day of month 1–31.
    pub day: u8,
}

impl fmt::Display for CalendarDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl SimTime {
    /// The simulation epoch, 2012-01-01 00:00.
    pub const EPOCH: SimTime = SimTime(0);

    /// Constructs from whole days since the epoch.
    pub fn from_days(days: u64) -> Self {
        SimTime(days * 24)
    }

    /// Constructs from `(years_offset, month 1-12, day 1-31, hour 0-23)`
    /// relative to 2012.
    ///
    /// # Panics
    ///
    /// Panics if the date components are out of range.
    pub fn from_date(year: u16, month: u8, day: u8, hour: u8) -> Self {
        assert!(year >= 2012, "calendar starts at 2012");
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!(hour < 24, "hour {hour} out of range");
        let mut days: u64 = 0;
        for y in 2012..year {
            days += days_in_year(y);
        }
        for m in 0..(month - 1) as usize {
            days += days_in_month(year, m);
        }
        let dim = days_in_month(year, (month - 1) as usize);
        assert!(day >= 1 && (day as u64) <= dim, "day {day} out of range");
        days += (day - 1) as u64;
        SimTime(days * 24 + hour as u64)
    }

    /// Hours since the epoch.
    pub fn hours(&self) -> u64 {
        self.0
    }

    /// Whole days since the epoch.
    pub fn days(&self) -> u64 {
        self.0 / 24
    }

    /// Hour of day, 0–23.
    pub fn hour_of_day(&self) -> u8 {
        (self.0 % 24) as u8
    }

    /// Day of week (epoch was a Sunday).
    pub fn day_of_week(&self) -> DayOfWeek {
        DayOfWeek::ALL[(self.days() % 7) as usize]
    }

    /// The calendar year and the zero-based day of that year.
    fn year_and_day(&self) -> (u16, u64) {
        let mut day = self.days();
        let mut year = 2012u16;
        while day >= days_in_year(year) {
            day -= days_in_year(year);
            year += 1;
        }
        (year, day)
    }

    /// Decomposes into a calendar date.
    pub fn date(&self) -> CalendarDate {
        let (year, mut remaining) = self.year_and_day();
        let mut month0 = 0usize;
        while remaining >= days_in_month(year, month0) {
            remaining -= days_in_month(year, month0);
            month0 += 1;
        }
        CalendarDate { year, month: month0 as u8 + 1, day: remaining as u8 + 1 }
    }

    /// Month of year, 1–12.
    pub fn month(&self) -> u8 {
        self.date().month
    }

    /// Calendar year.
    pub fn year(&self) -> u16 {
        self.year_and_day().0
    }

    /// Year offset from 2012 (the paper's "Year 0-2" ordinal feature).
    pub fn year_offset(&self) -> u16 {
        self.year() - 2012
    }

    /// ISO-less week of year: `1 + day_of_year / 7`, range 1–53 (the paper's
    /// "Week 1-52" ordinal feature).
    pub fn week_of_year(&self) -> u8 {
        (self.year_and_day().1 / 7 + 1) as u8
    }

    /// Fraction of the year elapsed, in `[0, 1)` — used by seasonal models.
    pub fn year_fraction(&self) -> f64 {
        let (year, doy) = self.year_and_day();
        (doy as f64 + self.hour_of_day() as f64 / 24.0) / days_in_year(year) as f64
    }

    /// Adds whole hours.
    pub fn plus_hours(&self, hours: u64) -> SimTime {
        SimTime(self.0 + hours)
    }

    /// Adds whole days.
    pub fn plus_days(&self, days: u64) -> SimTime {
        SimTime(self.0 + days * 24)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:02}:00", self.date(), self.hour_of_day())
    }
}

/// Temporal aggregation windows for failure metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimeGranularity {
    /// One-hour windows.
    Hourly,
    /// One-day windows.
    Daily,
    /// Seven-day windows.
    Weekly,
    /// Calendar-month windows.
    Monthly,
}

impl TimeGranularity {
    /// Index of the window containing `t` (windows count from the epoch).
    pub fn window_of(&self, t: SimTime) -> u64 {
        match self {
            TimeGranularity::Hourly => t.hours(),
            TimeGranularity::Daily => t.days(),
            TimeGranularity::Weekly => t.days() / 7,
            TimeGranularity::Monthly => {
                let d = t.date();
                (d.year as u64 - 2012) * 12 + (d.month as u64 - 1)
            }
        }
    }

    /// Start time of window `w`.
    pub fn window_start(&self, w: u64) -> SimTime {
        match self {
            TimeGranularity::Hourly => SimTime(w),
            TimeGranularity::Daily => SimTime::from_days(w),
            TimeGranularity::Weekly => SimTime::from_days(w * 7),
            TimeGranularity::Monthly => {
                let year = 2012 + (w / 12) as u16;
                let month = (w % 12) as u8 + 1;
                SimTime::from_date(year, month, 1, 0)
            }
        }
    }

    /// Number of windows fully or partially covering `[start, end)`.
    pub fn window_count(&self, start: SimTime, end: SimTime) -> u64 {
        if end.0 <= start.0 {
            return 0;
        }
        self.window_of(SimTime(end.0 - 1)) - self.window_of(start) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_sunday_2012() {
        let t = SimTime::EPOCH;
        assert_eq!(t.day_of_week(), DayOfWeek::Sun);
        assert_eq!(t.date(), CalendarDate { year: 2012, month: 1, day: 1 });
    }

    #[test]
    fn day_index_is_position_in_all() {
        for (position, day) in DayOfWeek::ALL.iter().enumerate() {
            assert_eq!(day.index(), position, "{day}");
        }
    }

    #[test]
    fn leap_year_2012_handled() {
        let feb29 = SimTime::from_date(2012, 2, 29, 0);
        assert_eq!(feb29.date(), CalendarDate { year: 2012, month: 2, day: 29 });
        let mar1 = feb29.plus_days(1);
        assert_eq!(mar1.date(), CalendarDate { year: 2012, month: 3, day: 1 });
    }

    #[test]
    fn known_weekday_2013() {
        // 2013-01-01 was a Tuesday.
        let t = SimTime::from_date(2013, 1, 1, 0);
        assert_eq!(t.day_of_week(), DayOfWeek::Tue);
        assert_eq!(t.year_offset(), 1);
    }

    #[test]
    fn from_date_roundtrips() {
        for &(y, m, d, h) in
            &[(2012u16, 1u8, 1u8, 0u8), (2012, 12, 31, 23), (2013, 6, 15, 12), (2014, 7, 1, 6)]
        {
            let t = SimTime::from_date(y, m, d, h);
            let date = t.date();
            assert_eq!((date.year, date.month, date.day, t.hour_of_day()), (y, m, d, h));
        }
    }

    #[test]
    fn week_of_year_ranges() {
        assert_eq!(SimTime::from_date(2012, 1, 1, 0).week_of_year(), 1);
        assert_eq!(SimTime::from_date(2012, 1, 8, 0).week_of_year(), 2);
        assert!(SimTime::from_date(2012, 12, 31, 0).week_of_year() <= 53);
    }

    #[test]
    fn year_fraction_monotone_within_year() {
        let a = SimTime::from_date(2013, 2, 1, 0).year_fraction();
        let b = SimTime::from_date(2013, 8, 1, 0).year_fraction();
        assert!(a < b);
        assert!((0.0..1.0).contains(&a));
        assert!((0.0..1.0).contains(&b));
    }

    #[test]
    fn windows_nest_correctly() {
        let t = SimTime::from_date(2013, 3, 15, 7);
        assert_eq!(TimeGranularity::Hourly.window_of(t), t.hours());
        assert_eq!(TimeGranularity::Daily.window_of(t), t.days());
        assert_eq!(TimeGranularity::Monthly.window_of(t), 14); // Jan 2012 = 0
        let start = TimeGranularity::Monthly.window_start(14);
        assert_eq!(start.date(), CalendarDate { year: 2013, month: 3, day: 1 });
    }

    #[test]
    fn window_count_boundaries() {
        let g = TimeGranularity::Daily;
        assert_eq!(g.window_count(SimTime(0), SimTime(0)), 0);
        assert_eq!(g.window_count(SimTime(0), SimTime(24)), 1);
        assert_eq!(g.window_count(SimTime(0), SimTime(25)), 2);
        assert_eq!(g.window_count(SimTime(12), SimTime(36)), 2);
    }

    #[test]
    fn weekday_predicate() {
        assert!(!DayOfWeek::Sun.is_weekday());
        assert!(DayOfWeek::Mon.is_weekday());
        assert!(DayOfWeek::Fri.is_weekday());
        assert!(!DayOfWeek::Sat.is_weekday());
    }

    #[test]
    #[should_panic(expected = "month")]
    fn from_date_rejects_bad_month() {
        SimTime::from_date(2012, 13, 1, 0);
    }

    #[test]
    #[should_panic(expected = "day")]
    fn from_date_rejects_bad_day() {
        SimTime::from_date(2013, 2, 29, 0);
    }
}
