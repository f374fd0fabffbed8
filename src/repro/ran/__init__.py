"""RAN and UE models.

* :mod:`repro.ran.usim` — the USIM: subscriber credentials, MILENAGE on
  the UE side, AUTN verification with SQN window + resynchronisation,
* :mod:`repro.ran.ue` — the UE NAS state machine (and the commercial
  OnePlus 8 profile of the paper's OTA test, including its PLMN-detection
  and OS-version quirks),
* :mod:`repro.ran.gnb` — the gNB relaying NAS between UE and AMF with an
  air-interface latency model,
* :mod:`repro.ran.gnbsim` — the mass-registration driver (the paper's
  gNBSIM), used by every latency/statistics experiment,
* :mod:`repro.ran.sdr` — the USRP x310 software-defined-radio gNB of the
  OTA feasibility test (Fig 11 / Table IV).
"""
