let artifacts_of (o : Driver.outcome) (impl : Encoded.result) =
  {
    Check.nbits = o.Driver.encoding.Encoding.nbits;
    codes = Array.copy o.Driver.encoding.Encoding.codes;
    cover = impl.Encoded.cover;
    claims = o.Driver.claims;
  }

let run m (o : Driver.outcome) impl = Check.certify m (artifacts_of o impl)

let error_of ~machine (cert : Check.t) =
  if cert.Check.ok then None
  else
    Some
      (Nova_error.Certification_failed
         {
           machine;
           failed = List.map (fun (o : Check.outcome) -> Check.check_name o.Check.id) (Check.failures cert);
         })
