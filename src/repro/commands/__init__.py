"""The runners of :data:`repro.cli.TABLE`, imported when their command runs."""
